// Package trace defines Vidi's trace formats: channel packets, cycle packets
// with Starts/Ends bit-vectors and compacted contents (§3.1–§3.2 of the
// paper), their binary serialization, 64-byte storage-interface packing
// (§3.3), and offline helpers to reconstruct transactions from a trace.
package trace

import "fmt"

// BitVec is a fixed-width bit vector backed by 64-bit words. The Starts and
// Ends fields of a cycle packet are bit vectors with one bit per channel.
type BitVec struct {
	n     int
	words []uint64
}

// NewBitVec returns a zeroed bit vector of n bits.
func NewBitVec(n int) BitVec {
	return BitVec{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of bits.
func (b BitVec) Len() int { return b.n }

// Set sets bit i.
func (b BitVec) Set(i int) {
	b.check(i)
	b.words[i/64] |= 1 << (uint(i) % 64)
}

// Clear clears bit i.
func (b BitVec) Clear(i int) {
	b.check(i)
	b.words[i/64] &^= 1 << (uint(i) % 64)
}

// Get reports bit i.
func (b BitVec) Get(i int) bool {
	b.check(i)
	return b.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Any reports whether any bit is set.
func (b BitVec) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (b BitVec) Count() int {
	n := 0
	for i := 0; i < b.n; i++ {
		if b.Get(i) {
			n++
		}
	}
	return n
}

// Copy returns an independent copy.
func (b BitVec) Copy() BitVec {
	c := NewBitVec(b.n)
	copy(c.words, b.words)
	return c
}

// Equal reports whether b and o have the same length and bits.
func (b BitVec) Equal(o BitVec) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Bytes serializes the vector to ceil(n/8) bytes, little-endian bit order.
func (b BitVec) Bytes() []byte {
	out := make([]byte, (b.n+7)/8)
	for i := 0; i < b.n; i++ {
		if b.Get(i) {
			out[i/8] |= 1 << (uint(i) % 8)
		}
	}
	return out
}

// BitVecFromBytes reconstructs an n-bit vector from its Bytes form.
func BitVecFromBytes(n int, data []byte) (BitVec, error) {
	want := (n + 7) / 8
	if len(data) < want {
		return BitVec{}, fmt.Errorf("trace: bitvec needs %d bytes, have %d", want, len(data))
	}
	b := NewBitVec(n)
	for i := 0; i < n; i++ {
		if data[i/8]&(1<<(uint(i)%8)) != 0 {
			b.Set(i)
		}
	}
	return b, nil
}

// ByteLen returns the serialized size of an n-bit vector.
func ByteLen(n int) int { return (n + 7) / 8 }

func (b BitVec) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("trace: bit %d out of range [0,%d)", i, b.n))
	}
}

// String renders set bits, e.g. "{1,4}".
func (b BitVec) String() string {
	s := "{"
	first := true
	for i := 0; i < b.n; i++ {
		if b.Get(i) {
			if !first {
				s += ","
			}
			s += fmt.Sprint(i)
			first = false
		}
	}
	return s + "}"
}
