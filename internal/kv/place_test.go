package kv

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// A placement case as FuzzColPlacement reads it from bytes. The first
// byte picks the key mapping (its low two bits: dense ids, ids 2^40 apart,
// ids at the bottom and at the top of the int64 range) and whether a prior
// round comes first (bit 2). Then every two bytes are one operation: the
// low three bits of the first byte are the kind, bit 4 the round it is
// for once the prior round is over (the two rounds in flight, A and B),
// and the second byte the key of a record, as an int8.
const (
	placeOpClose = 0 // close the round's open chunk, empty or not
	placeOpNext  = 1 // end the prior round: later operations are A's or B's
	// anything else appends a record to the round's open chunk
)

// placeCase is a decoded case: the chunks of each round, in arrival
// order. prior is nil when there is no prior round; a chunk of A and a
// chunk of B arrive in the order they were closed, held in order.
type placeCase struct {
	prior  []*Cols[float64]
	rounds [2][]*Cols[float64]
	order  []int // the round of each chunk of rounds, in arrival order
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
	inPrior := head&4 != 0
	var open [3]*Cols[float64] // A, B, prior
	closeChunk := func(r int) {
		c := open[r]
		if c == nil {
			c = new(Cols[float64])
		}
		open[r] = nil
		if r == 2 {
			pc.prior = append(pc.prior, c)
			return
		}
		pc.rounds[r] = append(pc.rounds[r], c)
		pc.order = append(pc.order, r)
	}
	serial := 0
	for ; len(data) >= 2; data = data[2:] {
		op, key := data[0], int64(int8(data[1]))
		r := int(op>>4) & 1
		if inPrior {
			r = 2
		}
		switch op & 7 {
		case placeOpClose:
			closeChunk(r)
		case placeOpNext:
			if inPrior {
				if open[2] != nil {
					closeChunk(2)
				}
				inPrior = false
			}
		default:
			if open[r] == nil {
				open[r] = new(Cols[float64])
			}
			serial++
			open[r].Append(base+key*scale, float64(serial))
		}
	}
	for r := range open {
		if open[r] != nil {
			closeChunk(r)
		}
	}
	if head&4 != 0 && pc.prior == nil {
		pc.prior = []*Cols[float64]{} // a prior round with no records
	}
	return pc
}

// concat is chunks in arrival order as one batch.
func concat(chunks []*Cols[float64]) *Cols[float64] {
	var all Cols[float64]
	for _, c := range chunks {
		all.AppendRange(c, 0, c.Len())
	}
	return &all
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
	return &ColLayout{lo: l.lo, keys: slices.Clone(l.keys), ends: slices.Clone(l.ends), win: slices.Clone(l.win)}
}

func sameLayout(a, b *ColLayout) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.lo == b.lo && slices.Equal(a.keys, b.keys) && slices.Equal(a.ends, b.ends) && slices.Equal(a.win, b.win)
}

// runPlaceCase places a case's rounds as a column reduce does and checks
// every result against ColGrouper.Group over the round's records in
// arrival order: the prior round with no layout, then rounds A and B in
// flight side by side, both started on the layout the prior round taught
// (or none), placed in their interleaved arrival order and grouped one
// after the other through one ColGrouper. The shared layout must come
// through unchanged, and placing A's records again on the layout A taught
// must be a hit.
func runPlaceCase(t *testing.T, pc placeCase) {
	t.Helper()
	var ref, g ColGrouper[float64]
	var layout *ColLayout
	var spare ColPlacement[float64]
	if pc.prior != nil {
		spare.Start(nil)
		for _, c := range pc.prior {
			spare.Place(c)
		}
		var got ColGroups[float64]
		got, layout = spare.Group(&g)
		checkColGroups(t, "prior", got, ref.Group(concat(pc.prior)))
		spare.Reset()
	}
	shared := layoutCopy(layout)
	ps := [2]*ColPlacement[float64]{&spare, new(ColPlacement[float64])}
	for _, p := range ps {
		p.Start(layout)
	}
	next := [2]int{}
	for _, r := range pc.order {
		ps[r].Place(pc.rounds[r][next[r]])
		next[r]++
	}
	learned := [2]*ColLayout{}
	for r, p := range ps {
		var got ColGroups[float64]
		got, learned[r] = p.Group(&g)
		checkColGroups(t, string(rune('A'+r)), got, ref.Group(concat(pc.rounds[r])))
	}
	if !sameLayout(layout, shared) {
		t.Fatal("grouping the rounds in flight changed the layout they shared")
	}
	if learned[0] == nil {
		return
	}
	p := ps[0]
	p.Reset()
	p.Start(learned[0])
	for _, c := range pc.rounds[0] {
		p.Place(c)
	}
	got, again := p.Group(&g)
	checkColGroups(t, "A again", got, ref.Group(concat(pc.rounds[0])))
	if again != learned[0] {
		t.Fatal("A's records placed on the layout they taught missed")
	}
}

// FuzzColPlacement holds on-arrival placement to the grouping it
// replaces: for any chunk sequence and any prior layout, or none, placing
// the chunks and finishing the round gives exactly what ColGrouper.Group
// gives for the chunks concatenated in arrival order. The checked-in
// seeds cover a layout hit, a new key, a missing key, an over-full and an
// under-full window, a sparse span (no layout), negative and extreme
// keys, empty chunks, and two rounds in flight on one layout.
func FuzzColPlacement(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runPlaceCase(t, decodePlaceCase(data))
	})
}

// TestColPlacementRandomRounds runs many random cases: rounds of a fixed
// key multiset in shuffled chunks (hits), with keys added, dropped or
// repeated (misses), at random key spans, both rounds in flight.
func TestColPlacementRandomRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := range 300 {
		keys := 1 + rng.Intn(40)
		span := int64(keys + rng.Intn(3*keys))
		if trial%10 == 0 {
			span <<= 40 // too sparse for a layout
		}
		round := func(serial *int) []*Cols[float64] {
			var chunks []*Cols[float64]
			c := new(Cols[float64])
			for k := range keys {
				for range 1 + k%3 {
					key := int64(k) * span / int64(keys)
					switch rng.Intn(20) {
					case 0:
						continue // a missing or under-full key
					case 1:
						key = rng.Int63n(span + 2) // a new or repeated key
					}
					*serial++
					c.Append(key-span/2, float64(*serial))
					if rng.Intn(8) == 0 {
						chunks, c = append(chunks, c), new(Cols[float64])
					}
				}
			}
			return append(chunks, c)
		}
		serial := 0
		pc := placeCase{prior: round(&serial)}
		pc.rounds = [2][]*Cols[float64]{round(&serial), round(&serial)}
		for r := range pc.rounds {
			for range pc.rounds[r] {
				pc.order = append(pc.order, r)
			}
		}
		rng.Shuffle(len(pc.order), func(i, j int) { pc.order[i], pc.order[j] = pc.order[j], pc.order[i] })
		runPlaceCase(t, pc)
	}
}

// TestColPlacementSteadyStateAllocs gates the steady state: once a layout
// exists, starting a round on it, placing its chunks and finishing a hit
// allocate nothing, for each of the two rounds a reduce has in flight.
func TestColPlacementSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race sweep")
	}
	const chunks, per = 4, 1024
	rng := rand.New(rand.NewSource(4))
	var in []*Cols[float64]
	for range chunks {
		c := NewCols[float64](per)
		for i := range per {
			c.Append(int64(rng.Intn(1500)), float64(i))
		}
		in = append(in, c)
	}
	var g ColGrouper[float64]
	var first ColPlacement[float64]
	first.Start(nil)
	for _, c := range in {
		first.Place(c)
	}
	_, layout := first.Group(&g)
	if layout == nil {
		t.Fatal("a dense round taught no layout")
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
			if _, l := p.Group(&g); l != layout {
				t.Fatal("the round missed its own layout")
			}
		}
	}
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("%v allocs per steady-state pair of rounds, want 0", allocs)
	}
}
