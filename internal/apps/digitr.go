package apps

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"

	"vidi/internal/shell"
	"vidi/internal/sim"
)

// digitr is the Rosetta "Digit Recognition" benchmark: K-nearest-neighbour
// classification of 196-bit binary digit images (14×14) by Hamming distance
// against a training set held in card DRAM, with K=3 majority voting —
// the same algorithm the Rosetta suite accelerates.
type digitrState struct {
	nTest   int
	nTrain  int
	train   [][]uint64 // 4 words per digit (196 bits used)
	labels  []byte
	queries [][]uint64
}

const digitWords = 4

func init() {
	register("digitr", func(scale int) App {
		st := &digitrState{nTest: 160 * scale, nTrain: 512}
		a := &computeApp{
			name: "digitr",
			desc: "Rosetta digit recognition: KNN over 196-bit digit bitmaps",
		}
		a.buildKernel = func(a *computeApp) {
			a.kern.Compute = func() int {
				trainBytes := st.nTrain * digitWords * 8
				train := unpackBits(a.card().Read(AuxBase, trainBytes), st.nTrain, digitWords)
				labels := a.card().Read(AuxBase+uint64(trainBytes), st.nTrain)
				queries := unpackBits(a.card().Read(InBase, st.nTest*digitWords*8), st.nTest, digitWords)
				out, work := knnClassify(queries, train, labels)
				a.card().Write(OutBase, out)
				return work/4 + 30 // 4 distance words per cycle
			}
		}
		a.program = func(a *computeApp, cpu *shell.CPU) {
			rng := sim.NewRand(0xd161)
			st.train = randDigits(rng, st.nTrain)
			st.labels = make([]byte, st.nTrain)
			for i := range st.labels {
				st.labels[i] = byte(rng.Intn(10))
			}
			st.queries = randDigits(rng, st.nTest)
			t := cpu.NewThread("digitr-main")
			aux := append(packBits(st.train), st.labels...)
			t.DMAWrite(AuxBase, aux)
			t.DMAWrite(InBase, packBits(st.queries))
			t.WriteReg(shell.OCL, RegGo, 1)
			t.WaitIRQ()
			t.DMARead(OutBase, st.nTest, func(d []byte) { a.received = d })
		}
		a.check = func(a *computeApp) error {
			want, _ := knnClassify(st.queries, st.train, st.labels)
			if !bytes.Equal(a.received, want) {
				return fmt.Errorf("digitr: classifications differ from golden KNN")
			}
			return nil
		}
		return a
	})
}

func randDigits(rng *rand.Rand, n int) [][]uint64 {
	out := make([][]uint64, n)
	for i := range out {
		out[i] = make([]uint64, digitWords)
		for k := range out[i] {
			out[i][k] = rng.Uint64()
		}
		out[i][3] &= (1 << (196 - 192)) - 1 // only 196 bits meaningful
	}
	return out
}

// knnClassify labels each query with the majority label of its 3 nearest
// training digits by Hamming distance (ties broken by lower label, then by
// earlier training index — fully deterministic, as hardware would be).
func knnClassify(queries, train [][]uint64, labels []byte) ([]byte, int) {
	out := make([]byte, len(queries))
	work := 0
	for qi, q := range queries {
		// Track the 3 best (distance, index) pairs.
		bestD := [3]int{1 << 30, 1 << 30, 1 << 30}
		bestI := [3]int{-1, -1, -1}
		for ti, tr := range train {
			d := 0
			for k := 0; k < digitWords; k++ {
				d += bits.OnesCount64(q[k] ^ tr[k])
				work++
			}
			for s := 0; s < 3; s++ {
				if d < bestD[s] {
					copy(bestD[s+1:], bestD[s:2])
					copy(bestI[s+1:], bestI[s:2])
					bestD[s], bestI[s] = d, ti
					break
				}
			}
		}
		var votes [10]int
		for s := 0; s < 3; s++ {
			if bestI[s] >= 0 {
				votes[labels[bestI[s]]]++
			}
		}
		best := 0
		for l := 1; l < 10; l++ {
			if votes[l] > votes[best] {
				best = l
			}
		}
		out[qi] = byte(best)
	}
	return out, work
}
