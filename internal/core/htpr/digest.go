package htpr

import (
	"encoding/binary"
	"fmt"
)

// Digest-message codec for push-mode eviction reporting (§5.2: "report the
// KV pairs to the switch CPU via generate_digest"). A message carries the
// query ID, the key tuple and the partial aggregate; the switch CPU decodes
// and merges it. Messages ride the rate-limited digest channel, so heavy
// eviction churn genuinely consumes the Fig. 16a budget.

// evictionMagic guards against decoding foreign digest messages.
const evictionMagic = 0x4855 // "HU"

// evictionLen is the encoded size of an eviction with an n-word key.
func evictionLen(n int) int { return 6 + 8*n + 8 }

// AppendEviction serializes one evicted entry into dst, reusing its capacity
// — the allocation-free form used by the receiver's pooled digest path.
func AppendEviction(dst []byte, queryID int, key []uint64, value uint64) []byte {
	dst = binary.BigEndian.AppendUint16(dst, evictionMagic)
	dst = binary.BigEndian.AppendUint16(dst, uint16(queryID))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(key)))
	for _, k := range key {
		dst = binary.BigEndian.AppendUint64(dst, k)
	}
	return binary.BigEndian.AppendUint64(dst, value)
}

// DecodeEviction parses a message produced by AppendEviction; key is a fresh
// slice.
func DecodeEviction(msg []byte) (queryID int, key []uint64, value uint64, err error) {
	return DecodeEvictionInto(nil, msg)
}

// DecodeEvictionInto is DecodeEviction with the key decoded into dst's
// storage, reallocated only when its capacity is short — the allocation-free
// form of the switch CPU's receive path.
func DecodeEvictionInto(dst []uint64, msg []byte) (queryID int, key []uint64, value uint64, err error) {
	if len(msg) < 6 {
		return 0, nil, 0, fmt.Errorf("htpr: digest message too short")
	}
	if binary.BigEndian.Uint16(msg[0:2]) != evictionMagic {
		return 0, nil, 0, fmt.Errorf("htpr: not an eviction digest")
	}
	queryID = int(binary.BigEndian.Uint16(msg[2:4]))
	n := int(binary.BigEndian.Uint16(msg[4:6]))
	if len(msg) != evictionLen(n) {
		return 0, nil, 0, fmt.Errorf("htpr: eviction digest length %d, want %d", len(msg), evictionLen(n))
	}
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	key = dst[:n]
	for i := range key {
		key[i] = binary.BigEndian.Uint64(msg[6+8*i:])
	}
	value = binary.BigEndian.Uint64(msg[6+8*n:])
	return queryID, key, value, nil
}
