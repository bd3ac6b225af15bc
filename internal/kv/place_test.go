package kv

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// A placement case as FuzzColPlacement reads it from bytes. The first
// byte picks the key mapping (its low two bits: dense ids, ids 2^40 apart,
// ids at the bottom and at the top of the int64 range), whether a prior
// round comes first (bit 2), whether a chunk that repeats its slot's keys
// travels values-only as over a socket or keeps them as over channels
// (bit 3), and whether round B starts only once round A is grouped
// instead of beside it (bit 4). Then every two bytes are one operation:
// the low three bits of the first byte are the kind, bit 4 the round it is
// for once the prior round is over (the two rounds in flight, A and B),
// bits 5-6 the sending map, and the second byte the key of a record, as an
// int8.
const (
	placeOpClose = 0 // close the map's open chunk of the round, empty or not
	placeOpNext  = 1 // end the prior round: later operations are A's or B's
	placeOpKeyed = 3 // send the map's open chunk with its keys, whatever they are
	// anything else appends a record to the map's open chunk of the round
)

// placeCase is a decoded case: the chunks of each round as their maps
// sent them, and the order the reduce takes them in. Rounds are numbered
// 0 (the prior round, when there is one), 1 (A) and 2 (B); iteration r+1
// sends round r.
type placeCase struct {
	rounds     [3][]ColChunk[float64]
	prior      bool
	sequential bool
	order      [][2]int // (round, chunk) in arrival order
}

// openChunk is a chunk a case is still filling.
type openChunk struct {
	keys  []int64
	vals  []float64
	keyed bool
}

func decodePlaceCase(data []byte) placeCase {
	var pc placeCase
	if len(data) == 0 {
		return pc
	}
	head, data := data[0], data[1:]
	base, scale := int64(0), int64(1)
	switch head & 3 {
	case 1:
		scale = 1 << 40
	case 2:
		base = math.MinInt64 + 128
	case 3:
		base = math.MaxInt64 - 127
	}
	pc.prior, pc.sequential = head&4 != 0, head&16 != 0
	inPrior := pc.prior
	var open [3][4]*openChunk
	var closed [3][4][]openChunk // each map's chunks of each round, by slot
	var arrivals [][3]int        // (round, map, slot)
	closeChunk := func(r, m int) {
		c := open[r][m]
		if c == nil {
			c = new(openChunk)
		}
		open[r][m] = nil
		arrivals = append(arrivals, [3]int{r, m, len(closed[r][m])})
		closed[r][m] = append(closed[r][m], *c)
	}
	serial := 0
	for ; len(data) >= 2; data = data[2:] {
		op, key := data[0], int64(int8(data[1]))
		r, m := 1+int(op>>4)&1, int(op>>5)&3
		if inPrior {
			r = 0
		}
		if open[r][m] == nil && op&7 != placeOpClose && op&7 != placeOpNext {
			open[r][m] = new(openChunk)
		}
		switch op & 7 {
		case placeOpClose:
			closeChunk(r, m)
		case placeOpNext:
			if inPrior {
				for m := range open[0] {
					if open[0][m] != nil {
						closeChunk(0, m)
					}
				}
				inPrior = false
			}
		case placeOpKeyed:
			open[r][m].keyed = true
		default:
			serial++
			open[r][m].keys = append(open[r][m].keys, base+key*scale)
			open[r][m].vals = append(open[r][m].vals, float64(serial))
		}
	}
	for r := range open {
		for m := range open[r] {
			if open[r][m] != nil {
				closeChunk(r, m)
			}
		}
	}
	// Each map sends its rounds in order, eliding keys as colMapLoops does.
	index := map[[3]int]int{}
	for m := range 4 {
		var kept []sentCol
		for r := range 3 {
			for slot, oc := range closed[r][m] {
				c := ColChunk[float64]{Map: m, Slot: slot, Epoch: r + 1, Keys: oc.keys, Vals: oc.vals}
				for len(kept) <= slot {
					kept = append(kept, sentCol{})
				}
				switch k := &kept[slot]; {
				case len(oc.keys) == 0:
					k.valid = false
				case k.valid && !oc.keyed && slices.Equal(k.keys, oc.keys):
					c.Epoch, c.Same = k.epoch, true
					if head&8 != 0 {
						c.Keys = nil
					}
				default:
					*k = sentCol{keys: oc.keys, epoch: r + 1, valid: true}
				}
				index[[3]int{r, m, slot}] = len(pc.rounds[r])
				pc.rounds[r] = append(pc.rounds[r], c)
			}
			for s := len(closed[r][m]); s < len(kept); s++ {
				kept[s].valid = false
			}
		}
	}
	for _, a := range arrivals {
		pc.order = append(pc.order, [2]int{a[0], index[a]})
	}
	return pc
}

// sentCol is a sender's key column at one slot, as colMapLoops keeps it.
type sentCol struct {
	keys  []int64
	epoch int
	valid bool
}

// canonicalGroups is the reference grouping of a round: its records in
// canonical order — by map, slot and position — stably sorted by key and
// cut into groups.
func canonicalGroups(chunks []ColChunk[float64]) ColGroups[float64] {
	chunks = slices.Clone(chunks)
	slices.SortStableFunc(chunks, func(a, b ColChunk[float64]) int {
		return cmp.Or(cmp.Compare(a.Map, b.Map), cmp.Compare(a.Slot, b.Slot))
	})
	type rec struct {
		k int64
		v float64
	}
	var recs []rec
	for _, c := range chunks {
		for i, v := range c.Vals {
			recs = append(recs, rec{c.Keys[i], v})
		}
	}
	slices.SortStableFunc(recs, func(a, b rec) int { return cmp.Compare(a.k, b.k) })
	var out ColGroups[float64]
	for i, r := range recs {
		out.Vals = append(out.Vals, r.v)
		if i+1 == len(recs) || recs[i+1].k != r.k {
			out.Keys = append(out.Keys, r.k)
			out.Ends = append(out.Ends, int32(i+1))
		}
	}
	return out
}

// withKeys returns a round's chunks as their maps filled them, keys and
// all, whatever crossed the wire.
func (pc placeCase) withKeys(r int) []ColChunk[float64] {
	out := slices.Clone(pc.rounds[r])
	for i := range out {
		if out[i].Keys == nil && len(out[i].Vals) > 0 {
			out[i].Keys = pc.keysOf(r, out[i])
		}
	}
	return out
}

// keysOf finds the keys a values-only chunk of round r repeats: those its
// map sent at its slot in the round its epoch names.
func (pc placeCase) keysOf(r int, c ColChunk[float64]) []int64 {
	for _, o := range pc.rounds[c.Epoch-1] {
		if o.Map == c.Map && o.Slot == c.Slot && o.Keys != nil {
			return o.Keys
		}
	}
	panic("a values-only chunk with no keyed chunk before it")
}

// checkColGroups fails unless got is want: the same keys, ends and
// values, bit for bit.
func checkColGroups(t *testing.T, label string, got, want ColGroups[float64]) {
	t.Helper()
	if !slices.Equal(got.Keys, want.Keys) || !slices.Equal(got.Ends, want.Ends) {
		t.Fatalf("%s: keys %v ends %v, want %v and %v", label, got.Keys, got.Ends, want.Keys, want.Ends)
	}
	n := 0
	if len(want.Ends) > 0 {
		n = int(want.Ends[len(want.Ends)-1])
	}
	if len(got.Vals) < n {
		t.Fatalf("%s: %d values, want %d", label, len(got.Vals), n)
	}
	for i := range n {
		if math.Float64bits(got.Vals[i]) != math.Float64bits(want.Vals[i]) {
			t.Fatalf("%s: value %d is %v, want %v", label, i, got.Vals[i], want.Vals[i])
		}
	}
}

// layoutCopy is a deep copy of a layout, to show it was not mutated.
func layoutCopy(l *ColLayout) *ColLayout {
	if l == nil {
		return nil
	}
	c := &ColLayout{keys: slices.Clone(l.keys), ends: slices.Clone(l.ends), src: slices.Clone(l.src), maps: slices.Clone(l.maps)}
	for i := range c.src {
		c.src[i].slots = slices.Clone(c.src[i].slots)
	}
	return c
}

func sameLayout(a, b *ColLayout) bool {
	if a == nil || b == nil {
		return a == b
	}
	return slices.Equal(a.keys, b.keys) && slices.Equal(a.ends, b.ends) && slices.Equal(a.maps, b.maps) &&
		slices.EqualFunc(a.src, b.src, func(x, y colSource) bool {
			return x.m == y.m && x.slot == y.slot && x.epoch == y.epoch && slices.Equal(x.slots, y.slots)
		})
}

// runPlaceCase places a case's rounds as a column reduce does and checks
// every result against the canonical grouping of the round's records: the
// prior round with no layout, then rounds A and B — side by side, both
// started on the layout the prior round taught (or none) and placed in
// their interleaved arrival order, or B only after A is grouped — grouped
// one after the other through one ColGrouper, each against the layout
// the round before it taught. B in flight is rebased onto the layout A
// taught, as the reduce does when A is grouped. The layout the rounds in
// flight share must come through unchanged, and placing A's chunks again
// on the layout A taught must be a hit.
func runPlaceCase(t *testing.T, pc placeCase) {
	t.Helper()
	var g ColGrouper[float64]
	var cur *ColLayout
	var ps [3]ColPlacement[float64]
	group := func(r int) {
		t.Helper()
		got, next, err := ps[r].Group(&g, cur)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		checkColGroups(t, string(rune('P'+r)), got, canonicalGroups(pc.withKeys(r)))
		cur = next
	}
	if pc.prior {
		ps[0].Start(nil)
		for _, c := range pc.rounds[0] {
			ps[0].Place(c)
		}
		group(0)
	}
	shared, sharedCopy := cur, layoutCopy(cur)
	ps[1].Start(cur)
	if !pc.sequential {
		ps[2].Start(cur)
	}
	for _, o := range pc.order {
		if r := o[0]; r > 0 && (r == 1 || !pc.sequential) {
			ps[r].Place(pc.rounds[r][o[1]])
		}
	}
	group(1)
	learnedA := cur
	if !pc.sequential {
		ps[2].Rebase(cur)
	} else {
		ps[2].Start(cur)
		for _, o := range pc.order {
			if o[0] == 2 {
				ps[2].Place(pc.rounds[2][o[1]])
			}
		}
	}
	group(2)
	if !sameLayout(shared, sharedCopy) {
		t.Fatal("grouping the rounds in flight changed the layout they shared")
	}
	if learnedA == nil {
		return
	}
	p := &ps[1]
	p.Reset()
	p.Start(learnedA)
	for _, c := range pc.rounds[1] {
		p.Place(c)
	}
	got, again, err := p.Group(&g, learnedA)
	if err != nil {
		t.Fatal(err)
	}
	checkColGroups(t, "A again", got, canonicalGroups(pc.withKeys(1)))
	if again != learnedA {
		t.Fatal("A's chunks placed on the layout they taught missed")
	}
}

// FuzzColPlacement holds placement by slot map to the canonical
// grouping: for any chunks its maps send — keys repeated values-only or
// not, chunk counts that change, rounds in flight side by side — placing
// the chunks in any arrival order and finishing the round gives exactly
// the grouping of the round's records in (map, slot, position) order. The
// checked-in seeds cover a values-only hit, a keyed chunk equal to the
// layout, a chunk that diverges mid-round, a values-only chunk that
// arrives before its epoch's keyed chunk, two rounds in flight, a changed
// chunk count, new, missing, repeated and too few keys, a sparse span,
// negative and extreme keys, empty chunks, and no prior round.
func FuzzColPlacement(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runPlaceCase(t, decodePlaceCase(data))
	})
}

// TestColPlacementRandomRounds runs many random cases: three rounds of a
// fixed key multiset from four maps, chunked alike (hits) or differently,
// with keys added, dropped or repeated (misses) and chunk counts changed,
// at random key spans, keys values-only or kept, rounds in flight side by
// side or one after the other.
func TestColPlacementRandomRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for trial := range 300 {
		keys := 1 + rng.Intn(40)
		span := int64(keys + rng.Intn(3*keys))
		head := byte(4 | rng.Intn(2)<<3 | rng.Intn(2)<<4)
		if trial%10 == 0 {
			head |= 1 // keys 2^40 apart: too sparse for the count table
		}
		data := []byte{head}
		chunkAt := 1 + rng.Intn(8)
		for r := range 3 {
			roundBit := byte(0)
			if r == 2 {
				roundBit = 0x10
			}
			if rng.Intn(4) == 0 {
				chunkAt = 1 + rng.Intn(8) // a changed chunk count
			}
			for m := range 4 {
				op := roundBit | byte(m)<<5
				n := 0
				for k := range keys {
					if PartitionInt64(int64(k), 4) != m {
						continue
					}
					for range 1 + k%3 {
						key := int64(k) * span / int64(keys)
						switch rng.Intn(40) {
						case 0:
							continue // a missing key
						case 1:
							key = rng.Int63n(span + 2) // a new or repeated key
						}
						data = append(data, op|2, byte(int8(key-span/2)))
						if n++; n%chunkAt == 0 {
							data = append(data, op|placeOpClose, 0)
							if rng.Intn(10) == 0 {
								data = append(data, op|placeOpKeyed, 0)
							}
						}
					}
				}
				data = append(data, op|placeOpClose, 0)
			}
			if r == 0 {
				data = append(data, placeOpNext, 0)
			}
		}
		pc := decodePlaceCase(data)
		// Rounds A and B arrive interleaved.
		var ab [][2]int
		for _, o := range pc.order {
			if o[0] > 0 {
				ab = append(ab, o)
			}
		}
		rng.Shuffle(len(ab), func(i, j int) { ab[i], ab[j] = ab[j], ab[i] })
		pc.order = ab
		runPlaceCase(t, pc)
	}
}

// TestColPlacementRounds walks a reduce of two maps through the cases a
// layout meets: a values-only round is a hit on the layout itself; a
// keyed chunk equal to the layout's is a hit that renews its epoch; a
// chunk whose keys diverge, and a changed chunk count, regroup exactly;
// a values-only chunk that arrives before the keyed chunk of its epoch is
// kept and resolved against the layout that chunk taught; and one whose
// keys no layout holds fails the round.
func TestColPlacementRounds(t *testing.T) {
	k0, k1 := []int64{3, 1, 2, 1}, []int64{2, 3, 3}
	vals := func(base float64, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = base + float64(i)
		}
		return v
	}
	keyed := func(m, slot, epoch int, keys []int64, base float64) ColChunk[float64] {
		return ColChunk[float64]{Map: m, Slot: slot, Epoch: epoch, Keys: keys, Vals: vals(base, len(keys))}
	}
	same := func(m, slot, epoch, n int, base float64) ColChunk[float64] {
		return ColChunk[float64]{Map: m, Slot: slot, Epoch: epoch, Same: true, Vals: vals(base, n)}
	}
	var g ColGrouper[float64]
	var p ColPlacement[float64]
	round := func(cur *ColLayout, start *ColLayout, chunks ...ColChunk[float64]) (ColGroups[float64], *ColLayout, error) {
		p.Reset()
		p.Start(start)
		for _, c := range chunks {
			p.Place(c)
		}
		return p.Group(&g, cur)
	}
	want := func(chunks ...ColChunk[float64]) ColGroups[float64] { return canonicalGroups(chunks) }

	// Round 1, keyed, arriving map 1 first: canonical order all the same.
	got, l1, err := round(nil, nil, keyed(1, 0, 1, k1, 10), keyed(0, 0, 1, k0, 0))
	if err != nil || l1 == nil {
		t.Fatalf("round 1: layout %v, err %v", l1, err)
	}
	checkColGroups(t, "round 1", got, want(keyed(0, 0, 1, k0, 0), keyed(1, 0, 1, k1, 10)))

	// Round 2, values-only: a hit on l1 itself.
	got, l2, err := round(l1, l1, same(0, 0, 1, 4, 20), same(1, 0, 1, 3, 30))
	if err != nil || l2 != l1 {
		t.Fatalf("round 2: a values-only round missed (err %v)", err)
	}
	checkColGroups(t, "round 2", got, want(keyed(0, 0, 1, k0, 20), keyed(1, 0, 1, k1, 30)))

	// Round 3: map 1 sends its keys again; they equal the layout's.
	got, l3, err := round(l2, l2, same(0, 0, 1, 4, 40), keyed(1, 0, 3, k1, 50))
	if err != nil || l3 == l2 || l3 == nil || l3.src[l3.find(1, 0)].epoch != 3 || !slices.Equal(l3.keys, l2.keys) {
		t.Fatalf("round 3: a keyed chunk equal to the layout did not renew its epoch (err %v)", err)
	}
	checkColGroups(t, "round 3", got, want(keyed(0, 0, 1, k0, 40), keyed(1, 0, 3, k1, 50)))

	// Round 4: map 0's keys diverge mid-round, and map 1 sends a second chunk.
	k0b := []int64{3, 1, 5, 1}
	got, l4, err := round(l3, l3, keyed(0, 0, 4, k0b, 60), same(1, 0, 3, 3, 70), keyed(1, 1, 4, []int64{9}, 80))
	if err != nil || l4 == nil || len(l4.src) != 3 {
		t.Fatalf("round 4: layout %v, err %v", l4, err)
	}
	checkColGroups(t, "round 4", got, want(keyed(0, 0, 4, k0b, 60), keyed(1, 0, 3, k1, 70), keyed(1, 1, 4, []int64{9}, 80)))

	// Rounds 5 and 6 in flight on l4: map 0's keys change at 5, and its
	// values-only chunk of 6 arrives before round 5 is grouped.
	var p6 ColPlacement[float64]
	p6.Start(l4)
	p6.Place(same(0, 0, 5, 4, 100))
	p6.Place(same(1, 0, 3, 3, 110))
	p6.Place(same(1, 1, 4, 1, 120))
	got, l5, err := round(l4, l4, keyed(0, 0, 5, k0, 90), same(1, 0, 3, 3, 95), same(1, 1, 4, 1, 99))
	if err != nil {
		t.Fatal(err)
	}
	checkColGroups(t, "round 5", got, want(keyed(0, 0, 5, k0, 90), keyed(1, 0, 3, k1, 95), keyed(1, 1, 4, []int64{9}, 99)))
	got, l6, err := p6.Group(&g, l5)
	if err != nil || l6 == nil {
		t.Fatalf("round 6: layout %v, err %v", l6, err)
	}
	checkColGroups(t, "round 6", got, want(keyed(0, 0, 5, k0, 100), keyed(1, 0, 3, k1, 110), keyed(1, 1, 4, []int64{9}, 120)))

	// A values-only chunk naming an epoch no layout holds fails the round.
	if _, _, err := round(l6, l6, same(0, 0, 2, 4, 0)); err == nil {
		t.Fatal("a values-only chunk with unknown keys was grouped")
	}
}

// TestColPlacementRebase: round 2's first chunk reaches a reduce before
// round 1 is grouped, so round 2 starts on no layout and keeps it. Once
// round 1 publishes its layout, Rebase places the kept chunk by its slot
// map — a values-only chunk counts as Same — the later chunk is placed
// on arrival, and round 2 is a hit on round 1's layout, with no regroup.
func TestColPlacementRebase(t *testing.T) {
	k0, k1 := []int64{3, 1, 2, 1}, []int64{2, 3, 3}
	keyed := func(m int, keys []int64, vals ...float64) ColChunk[float64] {
		return ColChunk[float64]{Map: m, Slot: 0, Epoch: 1, Keys: keys, Vals: vals}
	}
	same := func(m int, vals ...float64) ColChunk[float64] {
		return ColChunk[float64]{Map: m, Slot: 0, Epoch: 1, Same: true, Vals: vals}
	}
	var g ColGrouper[float64]
	var p1, p2 ColPlacement[float64]
	p1.Start(nil)
	p2.Start(nil)
	p1.Place(keyed(0, k0, 0, 1, 2, 3))
	p2.Place(same(0, 20, 21, 22, 23))
	p1.Place(keyed(1, k1, 10, 11, 12))
	_, l1, err := p1.Group(&g, nil)
	if err != nil || l1 == nil {
		t.Fatalf("round 1: layout %v, err %v", l1, err)
	}
	p2.Rebase(l1)
	p2.Place(same(1, 30, 31, 32))
	got, l2, err := p2.Group(&g, l1)
	if err != nil || l2 != l1 {
		t.Fatalf("round 2 regrouped instead of hitting round 1's layout (err %v)", err)
	}
	checkColGroups(t, "round 2", got, canonicalGroups([]ColChunk[float64]{keyed(0, k0, 20, 21, 22, 23), keyed(1, k1, 30, 31, 32)}))
}

// TestColPlacementSteadyStateAllocs gates the steady state: once a layout
// exists, starting a round on it, placing its chunks values-only and
// finishing a hit allocate nothing, for each of the two rounds a reduce
// has in flight.
func TestColPlacementSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race sweep")
	}
	const chunks, per = 8, 1024
	rng := rand.New(rand.NewSource(4))
	var in []ColChunk[float64]
	for i := range chunks {
		c := ColChunk[float64]{Map: i % 4, Slot: i / 4, Epoch: 1}
		for j := range per {
			c.Keys = append(c.Keys, int64(rng.Intn(3000)))
			c.Vals = append(c.Vals, float64(j))
		}
		in = append(in, c)
	}
	var g ColGrouper[float64]
	var first ColPlacement[float64]
	first.Start(nil)
	for _, c := range in {
		first.Place(c)
	}
	_, layout, err := first.Group(&g, nil)
	if err != nil || layout == nil {
		t.Fatalf("a round taught no layout (err %v)", err)
	}
	for i := range in {
		in[i].Keys, in[i].Same = nil, true
	}
	var ps [2]ColPlacement[float64]
	round := func() {
		for r := range ps {
			p := &ps[r]
			p.Reset()
			p.Start(layout)
			for _, c := range in {
				p.Place(c)
			}
			if _, l, _ := p.Group(&g, layout); l != layout {
				t.Fatal("the round missed its own layout")
			}
		}
	}
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("%v allocs per steady-state pair of rounds, want 0", allocs)
	}
}
