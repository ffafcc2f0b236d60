// Package trace defines Vidi's trace formats: channel packets, cycle packets
// with Starts/Ends bit-vectors and compacted contents (§3.1–§3.2 of the
// paper), their binary serialization, 64-byte storage-interface packing
// (§3.3), and offline helpers to reconstruct transactions from a trace.
package trace

import (
	"fmt"
	"math/bits"
)

// BitVec is a fixed-width bit vector backed by 64-bit words. The Starts and
// Ends fields of a cycle packet are bit vectors with one bit per channel,
// views into the trace's bit slab. Bits past the length are always zero.
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
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Next returns the lowest set bit at or after i, or -1 if there is none.
func (b BitVec) Next(i int) int {
	if i >= b.n {
		return -1
	}
	wi := i / 64
	if w := b.words[wi] >> (uint(i) % 64); w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if w := b.words[wi]; w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
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
