// The complete contract: every constant both emitted and dispatched
// (case arm, comparison, or handler-table key), every registered type
// built and handled by a switch arm.
package fixture

const (
	cmdHalt  = 10
	cmdFlush = 11
	kindPing = "ping"
)

func sendCmds() []frameMsg {
	return []frameMsg{{kind: cmdHalt}, {kind: cmdFlush}}
}

func dispatchCmd(m frameMsg) bool {
	switch m.kind {
	case cmdHalt:
		return true
	}
	// Comparison dispatch counts too.
	return m.kind == cmdFlush
}

func pingFrame() frameMsg { return frameMsg{payload: []byte(kindPing)} }

// A handler table keyed by the constant is a dispatch site.
var pingHandlers = map[string]func(){
	kindPing: func() {},
}

// pingMsg is registered, built and handled: the full round trip.
type pingMsg struct{ T int }

// Fields and RegisterMessage stand in for kv's and the transport
// package's own: the fixture is loaded as that package.
type Fields struct{}

func (f *Fields) Int(x *int) {}

func RegisterMessage[T any](tag string, walk func(f *Fields, m *T)) {}

func registerPing() {
	RegisterMessage("ping", func(f *Fields, m *pingMsg) { f.Int(&m.T) })
}

func ping() any { return pingMsg{T: 1} }

func route(v any) bool {
	switch v.(type) {
	case pingMsg:
		return true
	}
	return false
}
