package remote

import "errors"

// ErrClosed is returned by transport operations on a closed connection or
// listener.
var ErrClosed = errors.New("remote: connection closed")

// Transport abstracts how frames move between nodes. Two implementations
// ship: TCPTransport (length-prefixed frames over real sockets) and
// MemNetwork endpoints (in-process channels, deterministic fault injection).
// A frame is an opaque []byte produced by the node; transports never look
// inside it.
type Transport interface {
	// Listen binds addr and returns a listener for inbound connections.
	Listen(addr string) (Listener, error)
	// Dial opens a connection to the listener bound at addr.
	Dial(addr string) (Conn, error)
}

// Listener accepts inbound connections.
type Listener interface {
	// Accept blocks until a connection arrives or the listener closes
	// (then it returns an error).
	Accept() (Conn, error)
	// Addr returns the bound address in the form Dial accepts — for TCP
	// this resolves ":0" to the concrete port.
	Addr() string
	Close() error
}

// Conn is a bidirectional, frame-oriented connection. Recv may run
// concurrently with Send; each of Send and Recv additionally tolerates
// concurrent calls to itself (internally serialized). Close unblocks both
// sides.
//
// Buffer ownership: Send must not retain frame after it returns — callers
// reuse the backing array immediately (scratch buffers, pre-encoded static
// frames). Every slice Recv returns is owned by the caller, which hands it
// back to the frame pool once decoded; transports draw their Recv buffers
// from that same pool.
type Conn interface {
	// Send transmits one frame. A nil return means the frame was accepted
	// by the transport, not that the peer processed it (at-most-once).
	Send(frame []byte) error
	// Recv blocks for the next frame; it returns an error once the
	// connection is closed from either side.
	Recv() ([]byte, error)
	Close() error
}

// BufferedConn is an optional Conn capability for transports that can stage
// several frames and push them to the wire in one batch. The link writer
// uses it to coalesce every ready frame into a single flush; transports
// without it just see one Send per frame.
type BufferedConn interface {
	Conn
	// SendBuffered stages one frame without forcing it onto the wire.
	SendBuffered(frame []byte) error
	// Flush writes everything staged so far.
	Flush() error
}
