package apps

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"vidi/internal/shell"
	"vidi/internal/sim"
)

// sha is the open-source FPGA-SHA256 accelerator: it hashes buffers
// streamed into card DRAM. The compression function below is a from-scratch
// SHA-256 (stdlib-independent, as the RTL would be); the golden check
// recomputes the digests with the same primitive seeded from the host-side
// copy of the data.
type shaState struct {
	chunks    int
	chunkSize int
	data      [][]byte
}

func init() {
	register("sha", func(scale int) App {
		st := &shaState{chunks: 6 * scale, chunkSize: 8192}
		const chain = 8 // iterated hash-chain depth per chunk
		a := &computeApp{
			name: "sha",
			desc: "SHA-256 accelerator: streamed buffer hashing",
		}
		a.buildKernel = func(a *computeApp) {
			chunk := 0
			a.kern.Compute = func() int {
				data := a.card().Read(InBase, st.chunkSize)
				digest, rounds := shaChain(data, chain)
				a.card().Write(OutBase+uint64(chunk*32), digest)
				chunk++
				return rounds + 50 // one compression round per cycle
			}
		}
		a.program = func(a *computeApp, cpu *shell.CPU) {
			rng := sim.NewRand(0x5aa)
			t := cpu.NewThread("sha-main")
			for c := 0; c < st.chunks; c++ {
				buf := make([]byte, st.chunkSize)
				rng.Read(buf)
				st.data = append(st.data, buf)
				t.DMAWrite(InBase, buf)
				t.WriteReg(shell.OCL, RegGo, 1)
				t.WaitIRQ()
			}
			t.DMARead(OutBase, st.chunks*32, func(d []byte) { a.received = d })
		}
		a.check = func(a *computeApp) error {
			var want []byte
			for _, buf := range st.data {
				d, _ := shaChain(buf, chain)
				want = append(want, d...)
			}
			if !bytes.Equal(a.received, want) {
				return fmt.Errorf("sha: digests differ from golden SHA-256")
			}
			return nil
		}
		return a
	})
}

// shaChain computes an n-deep hash chain: digest_0 = SHA-256(data),
// digest_i = SHA-256(digest_{i-1} || data). Iterated hashing is the standard
// key-stretching workload SHA accelerators run.
func shaChain(data []byte, n int) ([]byte, int) {
	digest, rounds := sha256Sum(data)
	for i := 1; i < n; i++ {
		d, r := sha256Sum(append(append([]byte(nil), digest...), data...))
		digest = d
		rounds += r
	}
	return digest, rounds
}

var shaK = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

// sha256Sum computes SHA-256 from scratch (the hardware datapath) and
// returns the digest plus the number of compression rounds executed.
func sha256Sum(msg []byte) ([]byte, int) {
	h := [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}
	// Padding.
	ml := uint64(len(msg)) * 8
	padded := append(append([]byte(nil), msg...), 0x80)
	for len(padded)%64 != 56 {
		padded = append(padded, 0)
	}
	padded = binary.BigEndian.AppendUint64(padded, ml)

	rounds := 0
	var w [64]uint32
	for blk := 0; blk < len(padded); blk += 64 {
		for i := 0; i < 16; i++ {
			w[i] = binary.BigEndian.Uint32(padded[blk+i*4:])
		}
		for i := 16; i < 64; i++ {
			s0 := rotr(w[i-15], 7) ^ rotr(w[i-15], 18) ^ (w[i-15] >> 3)
			s1 := rotr(w[i-2], 17) ^ rotr(w[i-2], 19) ^ (w[i-2] >> 10)
			w[i] = w[i-16] + s0 + w[i-7] + s1
		}
		a, b, c, d, e, f, g, hh := h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]
		for i := 0; i < 64; i++ {
			rounds++
			s1 := rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)
			ch := (e & f) ^ (^e & g)
			t1 := hh + s1 + ch + shaK[i] + w[i]
			s0 := rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)
			maj := (a & b) ^ (a & c) ^ (b & c)
			t2 := s0 + maj
			hh, g, f, e, d, c, b, a = g, f, e, d+t1, c, b, a, t1+t2
		}
		h[0] += a
		h[1] += b
		h[2] += c
		h[3] += d
		h[4] += e
		h[5] += f
		h[6] += g
		h[7] += hh
	}
	out := make([]byte, 32)
	for i, v := range h {
		binary.BigEndian.PutUint32(out[i*4:], v)
	}
	return out, rounds
}

func rotr(x uint32, n uint) uint32 { return x>>n | x<<(32-n) }
