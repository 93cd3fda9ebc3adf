package pseudocode

import (
	"encoding/binary"
	"math/bits"
)

// fingerprint is a 128-bit state hash. The explorer keys its visited set on
// fingerprints instead of retaining every canonical encoding string: at the
// scale of millions of states, a random collision among 2^128 values is
// vanishingly unlikely (~n²/2^129). The equivalence sweep checks it: its
// reference search keys on the full strings, and a collision would lower
// Explore's state count below the reference's.
type fingerprint struct {
	hi, lo uint64
}

// MurmurHash3 x64 128-bit constants.
const (
	mmh3C1 = 0x87c37b91114253d5
	mmh3C2 = 0x4cf5ad432745937f
)

func mmh3Fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// fingerprintOf hashes data with MurmurHash3's x64 128-bit variant
// (seed 0). Chosen over a byte-at-a-time FNV because it processes 16 bytes
// per round — state encodings are hashed once per explored transition, so
// the hash sits directly on the hot path.
func fingerprintOf(data []byte) fingerprint {
	var h1, h2 uint64
	n := len(data)
	p := data
	for len(p) >= 16 {
		k1 := binary.LittleEndian.Uint64(p)
		k2 := binary.LittleEndian.Uint64(p[8:])
		p = p[16:]

		k1 *= mmh3C1
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= mmh3C2
		h1 ^= k1
		h1 = bits.RotateLeft64(h1, 27)
		h1 += h2
		h1 = h1*5 + 0x52dce729

		k2 *= mmh3C2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= mmh3C1
		h2 ^= k2
		h2 = bits.RotateLeft64(h2, 31)
		h2 += h1
		h2 = h2*5 + 0x38495ab5
	}

	var k1, k2 uint64
	switch len(p) & 15 {
	case 15:
		k2 ^= uint64(p[14]) << 48
		fallthrough
	case 14:
		k2 ^= uint64(p[13]) << 40
		fallthrough
	case 13:
		k2 ^= uint64(p[12]) << 32
		fallthrough
	case 12:
		k2 ^= uint64(p[11]) << 24
		fallthrough
	case 11:
		k2 ^= uint64(p[10]) << 16
		fallthrough
	case 10:
		k2 ^= uint64(p[9]) << 8
		fallthrough
	case 9:
		k2 ^= uint64(p[8])
		k2 *= mmh3C2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= mmh3C1
		h2 ^= k2
		fallthrough
	case 8:
		k1 ^= uint64(p[7]) << 56
		fallthrough
	case 7:
		k1 ^= uint64(p[6]) << 48
		fallthrough
	case 6:
		k1 ^= uint64(p[5]) << 40
		fallthrough
	case 5:
		k1 ^= uint64(p[4]) << 32
		fallthrough
	case 4:
		k1 ^= uint64(p[3]) << 24
		fallthrough
	case 3:
		k1 ^= uint64(p[2]) << 16
		fallthrough
	case 2:
		k1 ^= uint64(p[1]) << 8
		fallthrough
	case 1:
		k1 ^= uint64(p[0])
		k1 *= mmh3C1
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= mmh3C2
		h1 ^= k1
	}

	h1 ^= uint64(n)
	h2 ^= uint64(n)
	h1 += h2
	h2 += h1
	h1 = mmh3Fmix64(h1)
	h2 = mmh3Fmix64(h2)
	h1 += h2
	h2 += h1
	return fingerprint{hi: h1, lo: h2}
}
