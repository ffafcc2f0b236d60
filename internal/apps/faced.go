package apps

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"vidi/internal/shell"
	"vidi/internal/sim"
)

// faced is the Rosetta "Face Detection" benchmark: a Viola-Jones style
// cascade. The kernel builds an integral image over a grayscale frame and
// slides a 16×16 window, evaluating a cascade of rectangle-sum threshold
// classifiers; windows passing every stage are reported as detections.
type facedState struct {
	frames int
	imgW   int
	imgH   int
	images [][]byte
}

const (
	facedWin    = 16
	facedStages = 6
)

func init() {
	register("faced", func(scale int) App {
		st := &facedState{frames: 2 * scale, imgW: 64, imgH: 64}
		a := &computeApp{
			name: "faced",
			desc: "Rosetta face detection: integral-image cascade classifier",
		}
		a.buildKernel = func(a *computeApp) {
			frame := 0
			a.kern.Compute = func() int {
				img := a.card().Read(InBase, st.imgW*st.imgH)
				dets, work := cascadeDetect(img, st.imgW, st.imgH)
				a.card().Write(OutBase+uint64(frame*4), binary.LittleEndian.AppendUint32(nil, uint32(len(dets))))
				shown := dets[:min(len(dets), 512)]
				coords := make([]byte, 0, 4*len(shown))
				for _, d := range shown {
					coords = binary.LittleEndian.AppendUint16(coords, uint16(d%st.imgW))
					coords = binary.LittleEndian.AppendUint16(coords, uint16(d/st.imgW))
				}
				a.card().Write(OutBase+0x1000+uint64(frame*2048), coords)
				frame++
				// The sketch cascade has 6 stages; a production Viola-Jones
				// detector evaluates ~90x more rectangle features per
				// window across its scale pyramid, which the cycle model
				// restores.
				return work*90 + 200
			}
		}
		a.program = func(a *computeApp, cpu *shell.CPU) {
			rng := sim.NewRand(0xface)
			t := cpu.NewThread("faced-main")
			st.images = make([][]byte, st.frames)
			for f := 0; f < st.frames; f++ {
				img := make([]byte, st.imgW*st.imgH)
				rng.Read(img)
				// Plant a few bright "face-like" square patches.
				for p := 0; p < 4; p++ {
					x0, y0 := rng.Intn(st.imgW-facedWin), rng.Intn(st.imgH-facedWin)
					for y := 0; y < facedWin; y++ {
						for x := 0; x < facedWin; x++ {
							img[(y0+y)*st.imgW+x0+x] = byte(200 + rng.Intn(56))
						}
					}
				}
				st.images[f] = img
				t.DMAWrite(InBase, img)
				t.WriteReg(shell.OCL, RegGo, 1)
				t.WaitIRQ()
			}
			t.DMARead(OutBase, st.frames*4, func(d []byte) { a.received = d })
		}
		a.check = func(a *computeApp) error {
			want := make([]byte, st.frames*4)
			for f, img := range st.images {
				dets, _ := cascadeDetect(img, st.imgW, st.imgH)
				binary.LittleEndian.PutUint32(want[f*4:], uint32(len(dets)))
			}
			if !bytes.Equal(a.received, want) {
				return fmt.Errorf("faced: detection counts differ from golden cascade")
			}
			return nil
		}
		return a
	})
}

// cascadeDetect runs the classifier cascade over every window position and
// returns detected window origins (as linear indices) plus the work count.
func cascadeDetect(img []byte, w, h int) ([]int, int) {
	ii := integralImage(img, w, h)
	var dets []int
	work := 0
	for y := 0; y+facedWin <= h; y += 2 {
		for x := 0; x+facedWin <= w; x += 2 {
			pass := true
			for s := 0; s < facedStages && pass; s++ {
				work++
				// Stage s compares the mean of a shrinking centred
				// sub-rectangle against a rising threshold.
				inset := s
				x0, y0 := x+inset, y+inset
				x1, y1 := x+facedWin-inset, y+facedWin-inset
				area := (x1 - x0) * (y1 - y0)
				sum := rectSum(ii, w, x0, y0, x1, y1)
				if sum < int64(area)*int64(150+10*s) {
					pass = false
				}
			}
			if pass {
				dets = append(dets, y*w+x)
			}
		}
	}
	return dets, work
}

// integralImage computes the summed-area table (one extra row/col of zeros).
func integralImage(img []byte, w, h int) []int64 {
	ii := make([]int64, (w+1)*(h+1))
	for y := 1; y <= h; y++ {
		var row int64
		for x := 1; x <= w; x++ {
			row += int64(img[(y-1)*w+x-1])
			ii[y*(w+1)+x] = ii[(y-1)*(w+1)+x] + row
		}
	}
	return ii
}

// rectSum sums img over [x0,x1)×[y0,y1) via the integral image.
func rectSum(ii []int64, w, x0, y0, x1, y1 int) int64 {
	s := w + 1
	return ii[y1*s+x1] - ii[y0*s+x1] - ii[y1*s+x0] + ii[y0*s+x0]
}
