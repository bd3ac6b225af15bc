// Fixture for the protoexhaustive analyzer: the declared wire surface
// must match the handled surface, both directions.
package fixture

type frameMsg struct {
	kind    byte
	payload []byte
}

const (
	frameData = 1
	frameAck  = 2
	// Emitted below but no arm consumes it: receivers drop the frame.
	frameGone = 3 // want "emitted but never dispatched"
	// Handled below but nothing ever sends it: a dead protocol arm.
	frameIdle = 4 // want "dispatched but never emitted"
	// Declared and then forgotten entirely.
	frameDead = 5 // want "declared but never used"
)

func encodeAll() []frameMsg {
	return []frameMsg{
		{kind: frameData},
		{kind: frameAck},
		{kind: frameGone},
	}
}

func handle(m frameMsg) int {
	switch m.kind {
	case frameData:
		return 1
	case frameAck:
		return 2
	case frameIdle:
		return 3
	}
	return 0
}

// orphanMsg is sent and decodes off the wire, but no receiver arm
// handles it.
type orphanMsg struct{ N int }

// ghostMsg has a receiver arm, but nothing ever builds one to send.
type ghostMsg struct{ N int }

func register() {
	RegisterMessage("orphan", func(f *Fields, m *orphanMsg) { f.Int(&m.N) }) // want "registered with transport.RegisterMessage but no type switch"
	RegisterMessage[ghostMsg]("ghost", nil)                                  // want "registered with transport.RegisterMessage but no composite literal"
}

func sendOrphan() any { return orphanMsg{N: 1} }

func routeGhost(v any) bool {
	_, ok := v.(ghostMsg)
	return ok
}
