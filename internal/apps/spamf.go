package apps

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"vidi/internal/axi"
	"vidi/internal/shell"
	"vidi/internal/sim"
)

// spamf is the Rosetta "Spam Filtering" benchmark: logistic-regression
// training by stochastic gradient descent over fixed-point feature vectors.
// It is the most I/O-intensive Rosetta workload (the paper measures its
// highest recording overhead, 10.54%): every epoch the CPU streams a fresh
// shuffle of the training set over pcis, and the kernel streams the updated
// weight vector back to host DRAM over pcim.
type spamfState struct {
	epochs   int
	nSamples int
	nFeat    int
	samples  [][]int8
	labelsY  []byte
}

const spamfHostOut = 0x8_0000 // host DRAM offset for streamed weights

func init() {
	register("spamf", func(scale int) App {
		st := &spamfState{epochs: 3 * scale, nSamples: 256, nFeat: 128}
		a := &computeApp{
			name: "spamf",
			desc: "Rosetta spam filter: logistic regression SGD (fixed point)",
		}
		weights := make([]int32, st.nFeat)
		a.buildKernel = func(a *computeApp) {
			a.kern.Compute = func() int {
				data, labels := decodeSamples(a.card().Read(InBase, st.nSamples*st.nFeat+st.nSamples), st.nSamples, st.nFeat)
				work := sgdEpoch(weights, data, labels)
				// Results stay in the kernel; Stream sends them to host.
				return work/4 + 20 // 4 MACs per cycle (SGD is dependence-bound)
			}
			epoch := 0
			a.kern.Stream = func(w *axi.WriteManager) {
				buf := make([]byte, st.nFeat*4)
				for i, v := range weights {
					binary.LittleEndian.PutUint32(buf[i*4:], uint32(v))
				}
				w.Push(axi.WriteOp{Addr: spamfHostOut + uint64(epoch*st.nFeat*4), Data: buf})
				epoch++
			}
		}
		a.program = func(a *computeApp, cpu *shell.CPU) {
			rng := sim.NewRand(0x5ba)
			st.samples = make([][]int8, st.nSamples)
			st.labelsY = make([]byte, st.nSamples)
			for i := range st.samples {
				st.samples[i] = make([]int8, st.nFeat)
				for j := range st.samples[i] {
					st.samples[i][j] = int8(rng.Intn(256) - 128)
				}
				st.labelsY[i] = byte(rng.Intn(2))
			}
			t := cpu.NewThread("spamf-main")
			for e := 0; e < st.epochs; e++ {
				t.DMAWrite(InBase, encodeSamples(st.samples, st.labelsY))
				t.WriteReg(shell.OCL, RegParam0, uint32(e))
				t.WriteReg(shell.OCL, RegGo, 1)
				t.WaitIRQ()
			}
		}
		a.check = func(a *computeApp) error {
			// Golden: rerun SGD and compare the final weights streamed to
			// host DRAM via pcim.
			golden := make([]int32, st.nFeat)
			for e := 0; e < st.epochs; e++ {
				data, labels := st.samples, st.labelsY
				sgdEpoch(golden, data, labels)
			}
			want := make([]byte, st.nFeat*4)
			for i, v := range golden {
				binary.LittleEndian.PutUint32(want[i*4:], uint32(v))
			}
			off := spamfHostOut + uint64((st.epochs-1)*st.nFeat*4)
			got := a.sys.HostDRAM.Read(off, st.nFeat*4)
			if !bytes.Equal(got, want) {
				return fmt.Errorf("spamf: final weights in host DRAM differ from golden SGD")
			}
			return nil
		}
		return a
	})
}

func encodeSamples(samples [][]int8, labels []byte) []byte {
	n, f := len(samples), len(samples[0])
	out := make([]byte, n*f+n)
	for i, s := range samples {
		for j, v := range s {
			out[i*f+j] = byte(v)
		}
	}
	copy(out[n*f:], labels)
	return out
}

func decodeSamples(b []byte, n, f int) ([][]int8, []byte) {
	samples := make([][]int8, n)
	for i := range samples {
		samples[i] = make([]int8, f)
		for j := range samples[i] {
			samples[i][j] = int8(b[i*f+j])
		}
	}
	labels := append([]byte(nil), b[n*f:n*f+n]...)
	return samples, labels
}

// sgdEpoch performs one epoch of fixed-point logistic-regression SGD and
// returns the MAC count. The sigmoid is the usual piecewise-linear hardware
// approximation.
func sgdEpoch(w []int32, data [][]int8, labels []byte) int {
	work := 0
	for i, x := range data {
		var dot int64
		for j, v := range x {
			dot += int64(w[j]) * int64(v)
			work++
		}
		// Piecewise-linear sigmoid on Q16 fixed point.
		p := plSigmoid(dot >> 8)
		err := int64(labels[i])<<16 - p
		// w += lr * err * x, lr = 2^-12
		for j, v := range x {
			w[j] += int32((err * int64(v)) >> 12)
			work++
		}
	}
	return work
}

// plSigmoid approximates sigmoid(x/2^16)·2^16 piecewise linearly.
func plSigmoid(x int64) int64 {
	switch {
	case x <= -4<<16:
		return 0
	case x >= 4<<16:
		return 1 << 16
	default:
		// 0.5 + x/8
		return 1<<15 + x/8
	}
}
