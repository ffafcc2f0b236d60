package apps

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"

	"vidi/internal/shell"
	"vidi/internal/sim"
)

// bnn is the Rosetta "Binarized Neural Network" benchmark: a fully
// binarized fully-connected layer. Inputs are ±1 vectors packed as bits;
// each output neuron computes sign(popcount(xnor(input, weight)) −
// threshold). The XNOR-popcount datapath is exactly what BNN accelerators
// implement in LUTs.
type bnnState struct {
	nVec     int // input vectors per batch
	inWords  int // 64-bit words per vector (1024 bits = 16 words)
	nNeurons int
	inputs   [][]uint64
	weights  [][]uint64
}

func init() {
	register("bnn", func(scale int) App {
		st := &bnnState{nVec: 48 * scale, inWords: 16, nNeurons: 64}
		a := &computeApp{
			name: "bnn",
			desc: "Rosetta BNN: binarized fully-connected layer (XNOR-popcount)",
		}
		a.buildKernel = func(a *computeApp) {
			a.kern.Compute = func() int {
				inputs := unpackBits(a.card().Read(InBase, st.nVec*st.inWords*8), st.nVec, st.inWords)
				weights := unpackBits(a.card().Read(AuxBase, st.nNeurons*st.inWords*8), st.nNeurons, st.inWords)
				out, work := bnnForward(inputs, weights, st.inWords)
				a.card().Write(OutBase, out)
				return work*2 + 20 // 2 cycles per XNOR word (weight fetch + popcount reduce)
			}
		}
		a.program = func(a *computeApp, cpu *shell.CPU) {
			rng := sim.NewRand(0xb11)
			st.inputs = randBits(rng, st.nVec, st.inWords)
			st.weights = randBits(rng, st.nNeurons, st.inWords)
			t := cpu.NewThread("bnn-main")
			t.DMAWrite(AuxBase, packBits(st.weights))
			t.DMAWrite(InBase, packBits(st.inputs))
			t.WriteReg(shell.OCL, RegGo, 1)
			t.WaitIRQ()
			t.DMARead(OutBase, st.nVec*st.nNeurons/8, func(d []byte) { a.received = d })
		}
		a.check = func(a *computeApp) error {
			want, _ := bnnForward(st.inputs, st.weights, st.inWords)
			if !bytes.Equal(a.received, want) {
				return fmt.Errorf("bnn: layer output differs from golden model")
			}
			return nil
		}
		return a
	})
}

// bnnForward computes the binarized layer; the output packs one bit per
// (vector, neuron) pair. Returns the output and the number of word
// operations (the cycle-model work unit).
func bnnForward(inputs, weights [][]uint64, words int) ([]byte, int) {
	nVec, nNeu := len(inputs), len(weights)
	out := make([]byte, (nVec*nNeu+7)/8)
	work := 0
	threshold := words * 64 / 2
	bit := 0
	for _, in := range inputs {
		for _, w := range weights {
			pop := 0
			for k := 0; k < words; k++ {
				pop += bits.OnesCount64(^(in[k] ^ w[k]))
				work++
			}
			if pop > threshold {
				out[bit/8] |= 1 << (uint(bit) % 8)
			}
			bit++
		}
	}
	return out, work
}

func randBits(rng *rand.Rand, n, words int) [][]uint64 {
	out := make([][]uint64, n)
	for i := range out {
		out[i] = make([]uint64, words)
		for k := range out[i] {
			out[i][k] = rng.Uint64()
		}
	}
	return out
}

func packBits(vs [][]uint64) []byte {
	var buf bytes.Buffer
	for _, v := range vs {
		for _, w := range v {
			var b [8]byte
			for i := 0; i < 8; i++ {
				b[i] = byte(w >> (8 * i))
			}
			buf.Write(b[:])
		}
	}
	return buf.Bytes()
}

func unpackBits(b []byte, n, words int) [][]uint64 {
	out := make([][]uint64, n)
	for i := range out {
		out[i] = make([]uint64, words)
		for k := range out[i] {
			off := (i*words + k) * 8
			var w uint64
			for j := 0; j < 8; j++ {
				w |= uint64(b[off+j]) << (8 * j)
			}
			out[i][k] = w
		}
	}
	return out
}
