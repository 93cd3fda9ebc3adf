package remote

import "sync"

// Receive-frame pooling. Every []byte a Conn.Recv returns is drawn from this
// size-classed pool, and the consumer (the node's connection reader or a
// link's ack reader) returns it with putFrame once the frame is decoded.
// Send-side buffers do not come from here: each connection has one
// grow-only scratch buffer, which is cheaper than any pool (zero steady-state
// allocation) because frames are encoded and written one at a time, under
// the link's write lock.
var frameClasses = [...]int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10}

var framePools [len(frameClasses)]sync.Pool

// getFrame returns a []byte of length n backed by a pooled buffer of the
// smallest class that fits. Frames above the largest class (rare: maxFrame
// allows them, steady-state traffic never produces them) are plain
// allocations that putFrame later ignores.
func getFrame(n int) []byte {
	for i, size := range frameClasses {
		if n <= size {
			if v := framePools[i].Get(); v != nil {
				return v.([]byte)[:n]
			}
			return make([]byte, n, size)
		}
	}
	return make([]byte, n)
}

// putFrame recycles a buffer previously returned by getFrame. Buffers whose
// capacity is not exactly a pool class (foreign slices, oversized frames)
// are dropped for the GC, so calling it on any frame is always safe.
func putFrame(b []byte) {
	for i, size := range frameClasses {
		if cap(b) == size {
			framePools[i].Put(b[:0:size])
			return
		}
	}
}

// Envelope pooling: the send path builds one WireEnvelope per Tell and
// releases it right after encoding, so steady-state traffic reuses a
// handful of envelopes instead of allocating one per message.
var envPool = sync.Pool{New: func() any { return new(WireEnvelope) }}

func getEnvelope() *WireEnvelope { return envPool.Get().(*WireEnvelope) }

func putEnvelope(w *WireEnvelope) {
	*w = WireEnvelope{} // drop payload and sender references before pooling
	envPool.Put(w)
}
