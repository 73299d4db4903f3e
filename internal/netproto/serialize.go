package netproto

// SerializeBuffer builds packets back to front: each layer prepends its
// header bytes in front of whatever is already in the buffer (which it treats
// as its payload), mirroring gopacket's SerializeBuffer contract. This lets
// inner layers (payload, L4) be written first so outer layers can compute
// lengths and checksums over them.
type SerializeBuffer struct {
	store      []byte // backing storage; contents live in store[start:end]
	start, end int
}

// NewSerializeBuffer returns a buffer with room for a typical frame.
func NewSerializeBuffer() *SerializeBuffer {
	s := &SerializeBuffer{store: make([]byte, 2048)}
	s.Clear()
	return s
}

// Clear empties the buffer, retaining storage. New content is positioned so
// prepends (the common direction) have most of the room.
func (s *SerializeBuffer) Clear() {
	s.start = len(s.store) * 3 / 4
	s.end = s.start
}

// Bytes returns the assembled packet. The slice is valid until the next
// mutation of the buffer.
func (s *SerializeBuffer) Bytes() []byte { return s.store[s.start:s.end] }

// grow reallocates storage with at least front free bytes before the
// content.
func (s *SerializeBuffer) grow(front int) {
	contentLen := s.end - s.start
	newCap := 2 * len(s.store)
	for newCap < front+contentLen {
		newCap *= 2
	}
	store := make([]byte, newCap)
	newStart := front + (newCap-front-contentLen)/2
	copy(store[newStart:], s.store[s.start:s.end])
	s.store = store
	s.start = newStart
	s.end = newStart + contentLen
}

// PrependBytes makes room for n bytes in front of the current contents and
// returns that region for the caller to fill.
func (s *SerializeBuffer) PrependBytes(n int) []byte {
	if n > s.start {
		s.grow(n)
	}
	s.start -= n
	return s.store[s.start : s.start+n]
}

// SerializableLayer is any layer that can prepend itself onto a buffer. The
// buffer's current contents are the layer's payload.
type SerializableLayer interface {
	SerializeTo(b *SerializeBuffer) error
}

// Serialize assembles layers outermost-first (Ethernet, IPv4, TCP, Payload)
// by writing them to the buffer in reverse order, and returns the packet
// bytes as a fresh slice.
func Serialize(layers ...SerializableLayer) ([]byte, error) {
	b := NewSerializeBuffer()
	for i := len(layers) - 1; i >= 0; i-- {
		if err := layers[i].SerializeTo(b); err != nil {
			return nil, err
		}
	}
	out := make([]byte, len(b.Bytes()))
	copy(out, b.Bytes())
	return out, nil
}

// Payload is a raw application-layer blob.
type Payload []byte

// SerializeTo implements SerializableLayer.
func (p Payload) SerializeTo(b *SerializeBuffer) error {
	dst := b.PrependBytes(len(p))
	copy(dst, p)
	return nil
}

// Pad is zero padding of a fixed size, used to reach minimum frame lengths.
type Pad int

// SerializeTo implements SerializableLayer.
func (p Pad) SerializeTo(b *SerializeBuffer) error {
	dst := b.PrependBytes(int(p))
	for i := range dst {
		dst[i] = 0
	}
	return nil
}
