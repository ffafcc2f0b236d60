package apps

import (
	"bytes"
	"fmt"

	"vidi/internal/shell"
	"vidi/internal/sim"
)

// opflw is the Rosetta "Optical Flow" benchmark: a Lucas-Kanade style dense
// flow estimate between consecutive frames. The kernel computes spatial and
// temporal gradients, accumulates the structure tensor over a 5×5 window,
// and solves the 2×2 system in fixed point for every pixel.
type opflwState struct {
	pairs  int
	imgW   int
	imgH   int
	frames [][]byte // 2*pairs frames
}

func init() {
	register("opflw", func(scale int) App {
		st := &opflwState{pairs: 4 * scale, imgW: 48, imgH: 48}
		a := &computeApp{
			name: "opflw",
			desc: "Rosetta optical flow: Lucas-Kanade window flow (fixed point)",
		}
		a.buildKernel = func(a *computeApp) {
			pair := 0
			a.kern.Compute = func() int {
				n := st.imgW * st.imgH
				f0 := a.card().Read(InBase, n)
				f1 := a.card().Read(InBase+uint64(n), n)
				flow, work := lucasKanade(f0, f1, st.imgW, st.imgH)
				a.card().Write(OutBase+uint64(pair*len(flow)), flow)
				pair++
				return work/2 + 100 // 2 tensor MACs per cycle
			}
		}
		a.program = func(a *computeApp, cpu *shell.CPU) {
			rng := sim.NewRand(0x0f10)
			t := cpu.NewThread("opflw-main")
			n := st.imgW * st.imgH
			for p := 0; p < st.pairs; p++ {
				f0 := make([]byte, n)
				rng.Read(f0)
				smooth(f0, st.imgW, st.imgH)
				// The second frame is the first shifted by one pixel plus noise.
				f1 := make([]byte, n)
				for y := 0; y < st.imgH; y++ {
					for x := 0; x < st.imgW; x++ {
						sx := x - 1
						if sx < 0 {
							sx = 0
						}
						f1[y*st.imgW+x] = f0[y*st.imgW+sx]
					}
				}
				st.frames = append(st.frames, f0, f1)
				t.DMAWrite(InBase, append(append([]byte(nil), f0...), f1...))
				t.WriteReg(shell.OCL, RegGo, 1)
				t.WaitIRQ()
			}
			t.DMARead(OutBase, st.pairs*2*n, func(d []byte) { a.received = d })
		}
		a.check = func(a *computeApp) error {
			n := st.imgW * st.imgH
			var want []byte
			for p := 0; p < st.pairs; p++ {
				flow, _ := lucasKanade(st.frames[2*p], st.frames[2*p+1], st.imgW, st.imgH)
				want = append(want, flow...)
			}
			if !bytes.Equal(a.received[:st.pairs*2*n], want) {
				return fmt.Errorf("opflw: flow field differs from golden Lucas-Kanade")
			}
			return nil
		}
		return a
	})
}

// smooth box-blurs in place to make gradients meaningful.
func smooth(img []byte, w, h int) {
	src := append([]byte(nil), img...)
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			var s int
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					s += int(src[(y+dy)*w+x+dx])
				}
			}
			img[y*w+x] = byte(s / 9)
		}
	}
}

// lucasKanade returns per-pixel (u, v) flow as two int8 planes and the work
// count.
func lucasKanade(f0, f1 []byte, w, h int) ([]byte, int) {
	n := w * h
	ix := make([]int32, n)
	iy := make([]int32, n)
	it := make([]int32, n)
	work := 0
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			i := y*w + x
			ix[i] = (int32(f0[i+1]) - int32(f0[i-1])) / 2
			iy[i] = (int32(f0[i+w]) - int32(f0[i-w])) / 2
			it[i] = int32(f1[i]) - int32(f0[i])
			work++
		}
	}
	out := make([]byte, 2*n)
	const r = 2
	for y := r; y < h-r; y++ {
		for x := r; x < w-r; x++ {
			var sxx, sxy, syy, sxt, syt int64
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					i := (y+dy)*w + x + dx
					gx, gy, gt := int64(ix[i]), int64(iy[i]), int64(it[i])
					sxx += gx * gx
					sxy += gx * gy
					syy += gy * gy
					sxt += gx * gt
					syt += gy * gt
					work++
				}
			}
			det := sxx*syy - sxy*sxy
			var u, v int64
			if det != 0 {
				u = (-syy*sxt + sxy*syt) / det
				v = (sxy*sxt - sxx*syt) / det
			}
			out[y*w+x] = byte(int8(clamp64(u, -127, 127)))
			out[n+y*w+x] = byte(int8(clamp64(v, -127, 127)))
		}
	}
	return out, work
}

func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
