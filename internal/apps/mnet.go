package apps

import (
	"bytes"
	"fmt"
	"math/rand"

	"vidi/internal/shell"
	"vidi/internal/sim"
)

// mnet is the open-source iSmartDNN-style image classifier: a MobileNet
// building block — depthwise 3×3 convolution followed by a pointwise 1×1
// convolution with ReLU, in int8/int32 arithmetic — applied over a stack of
// layers. It is compute-heavy with small I/O, like the paper's MNet
// (110.7 s for 0.51 GB of trace).
type mnetState struct {
	layers int
	chans  int
	dim    int
	input  []byte
	dwW    [][]int8 // per channel 3×3
	pwW    [][]int8 // [out][in]
}

func init() {
	register("mnet", func(scale int) App {
		st := &mnetState{layers: 16 * scale, chans: 8, dim: 24}
		a := &computeApp{
			name: "mnet",
			desc: "MobileNet-style classifier: depthwise+pointwise int8 conv stack",
		}
		a.buildKernel = func(a *computeApp) {
			a.kern.Compute = func() int {
				n := st.chans * st.dim * st.dim
				in := a.card().Read(InBase, n)
				dw, pw := decodeMnetWeights(a.card().Read(AuxBase, st.chans*9+st.chans*st.chans), st.chans)
				out, work := mnetForward(in, st.layers, st.chans, st.dim, dw, pw)
				a.card().Write(OutBase, out)
				return work/2 + 100 // 2 MACs per cycle (depthwise stage is bandwidth-bound)
			}
		}
		a.program = func(a *computeApp, cpu *shell.CPU) {
			rng := sim.NewRand(0x77e7)
			n := st.chans * st.dim * st.dim
			st.input = make([]byte, n)
			rng.Read(st.input)
			st.dwW = make([][]int8, st.chans)
			for c := range st.dwW {
				st.dwW[c] = randInt8(rng, 9)
			}
			st.pwW = make([][]int8, st.chans)
			for o := range st.pwW {
				st.pwW[o] = randInt8(rng, st.chans)
			}
			// Weights travel over pcis too (to AuxBase).
			blob := make([]byte, 0, st.chans*9+st.chans*st.chans)
			for _, w := range st.dwW {
				blob = append(blob, int8Bytes(w)...)
			}
			for _, w := range st.pwW {
				blob = append(blob, int8Bytes(w)...)
			}
			t := cpu.NewThread("mnet-main")
			t.DMAWrite(AuxBase, blob)
			t.DMAWrite(InBase, st.input)
			t.WriteReg(shell.OCL, RegGo, 1)
			t.WaitIRQ()
			t.DMARead(OutBase, n, func(d []byte) { a.received = d })
		}
		a.check = func(a *computeApp) error {
			want, _ := mnetForward(st.input, st.layers, st.chans, st.dim, st.dwW, st.pwW)
			if !bytes.Equal(a.received, want) {
				return fmt.Errorf("mnet: feature map differs from golden conv stack")
			}
			return nil
		}
		return a
	})
}

func randInt8(rng *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(rng.Intn(7) - 3)
	}
	return out
}

func int8Bytes(v []int8) []byte {
	out := make([]byte, len(v))
	for i, x := range v {
		out[i] = byte(x)
	}
	return out
}

// decodeMnetWeights parses the weight blob laid out by Program: per-channel
// 3×3 depthwise kernels followed by the chans×chans pointwise matrix.
func decodeMnetWeights(b []byte, chans int) (dwW, pwW [][]int8) {
	dwW = make([][]int8, chans)
	for c := 0; c < chans; c++ {
		w := make([]int8, 9)
		for i := range w {
			w[i] = int8(b[c*9+i])
		}
		dwW[c] = w
	}
	off := chans * 9
	pwW = make([][]int8, chans)
	for o := 0; o < chans; o++ {
		w := make([]int8, chans)
		for i := range w {
			w[i] = int8(b[off+o*chans+i])
		}
		pwW[o] = w
	}
	return dwW, pwW
}

// mnetForward applies the depthwise+pointwise stack and returns the final
// int8 feature map (re-quantized per layer) plus the MAC count.
func mnetForward(input []byte, layers, c, d int, dwWeights, pwWeights [][]int8) ([]byte, int) {
	cur := make([]int8, c*d*d)
	for i, b := range input {
		cur[i] = int8(b >> 1) // treat input bytes as 7-bit activations
	}
	work := 0
	dw := make([]int32, c*d*d)
	for layer := 0; layer < layers; layer++ {
		// Depthwise 3×3, zero padded.
		for ch := 0; ch < c; ch++ {
			w := dwWeights[ch]
			for y := 0; y < d; y++ {
				for x := 0; x < d; x++ {
					var acc int32
					for ky := -1; ky <= 1; ky++ {
						for kx := -1; kx <= 1; kx++ {
							yy, xx := y+ky, x+kx
							if yy < 0 || yy >= d || xx < 0 || xx >= d {
								continue
							}
							acc += int32(cur[ch*d*d+yy*d+xx]) * int32(w[(ky+1)*3+kx+1])
							work++
						}
					}
					dw[ch*d*d+y*d+x] = acc
				}
			}
		}
		// Pointwise 1×1 + ReLU + requantize (>>4, clamp to int8).
		next := make([]int8, c*d*d)
		for o := 0; o < c; o++ {
			w := pwWeights[o]
			for p := 0; p < d*d; p++ {
				var acc int32
				for in := 0; in < c; in++ {
					acc += dw[in*d*d+p] * int32(w[in])
					work++
				}
				if acc < 0 {
					acc = 0 // ReLU
				}
				acc >>= 4
				if acc > 127 {
					acc = 127
				}
				next[o*d*d+p] = int8(acc)
			}
		}
		cur = next
	}
	return int8Bytes(cur), work
}
