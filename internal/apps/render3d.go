package apps

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"vidi/internal/shell"
	"vidi/internal/sim"
)

// render3d is the Rosetta "3D Rendering" benchmark: it rasterizes a batch of
// 3-D triangles into a z-buffered 64×64 framebuffer. Input triangles are
// DMA-written to card DRAM as 9 float-free fixed-point int16 coordinates
// each; the kernel (and the golden model) draw them with a classic
// edge-function rasterizer.
type render3dState struct {
	tris  []tri3d
	frame []byte
	nTris int
}

type tri3d struct{ x, y, z [3]int16 }

const (
	r3dW = 64
	r3dH = 64
)

func init() {
	register("render3d", func(scale int) App {
		st := &render3dState{nTris: 96 * scale}
		a := &computeApp{
			name: "render3d",
			desc: "Rosetta 3D rendering: z-buffered triangle rasterizer",
		}
		a.buildKernel = func(a *computeApp) {
			a.kern.Compute = func() int {
				tris := decodeTris(a.card().Read(InBase, st.nTris*18), st.nTris)
				frame, work := rasterize(tris)
				a.card().Write(OutBase, frame)
				return work/2 + 50 // 2 covered pixels per cycle
			}
		}
		a.program = func(a *computeApp, cpu *shell.CPU) {
			rng := sim.NewRand(0x3d)
			st.tris = make([]tri3d, st.nTris)
			for i := range st.tris {
				for v := 0; v < 3; v++ {
					st.tris[i].x[v] = int16(rng.Intn(r3dW))
					st.tris[i].y[v] = int16(rng.Intn(r3dH))
					st.tris[i].z[v] = int16(rng.Intn(256))
				}
			}
			a.runOnce(cpu, encodeTris(st.tris), r3dW*r3dH)
		}
		a.check = func(a *computeApp) error {
			want, _ := rasterize(st.tris)
			if a.received == nil {
				return fmt.Errorf("render3d: no framebuffer read back")
			}
			if !bytes.Equal(a.received, want) {
				return fmt.Errorf("render3d: framebuffer differs from golden rasterization")
			}
			return nil
		}
		return a
	})
}

func encodeTris(tris []tri3d) []byte {
	out := make([]byte, 0, len(tris)*18)
	for _, t := range tris {
		for v := 0; v < 3; v++ {
			out = binary.LittleEndian.AppendUint16(out, uint16(t.x[v]))
			out = binary.LittleEndian.AppendUint16(out, uint16(t.y[v]))
			out = binary.LittleEndian.AppendUint16(out, uint16(t.z[v]))
		}
	}
	return out
}

func decodeTris(b []byte, n int) []tri3d {
	tris := make([]tri3d, n)
	for i := range tris {
		for v := 0; v < 3; v++ {
			off := i*18 + v*6
			tris[i].x[v] = int16(binary.LittleEndian.Uint16(b[off:]))
			tris[i].y[v] = int16(binary.LittleEndian.Uint16(b[off+2:]))
			tris[i].z[v] = int16(binary.LittleEndian.Uint16(b[off+4:]))
		}
	}
	return tris
}

// rasterize draws the triangles into a z-buffered framebuffer and returns
// the frame plus the pixel-work count (for the cycle model).
func rasterize(tris []tri3d) ([]byte, int) {
	frame := make([]byte, r3dW*r3dH)
	zbuf := make([]int32, r3dW*r3dH)
	for i := range zbuf {
		zbuf[i] = 1 << 30
	}
	work := 0
	for _, t := range tris {
		minX, maxX := bound(t.x[0], t.x[1], t.x[2], r3dW-1)
		minY, maxY := bound(t.y[0], t.y[1], t.y[2], r3dH-1)
		x0, y0 := int32(t.x[0]), int32(t.y[0])
		x1, y1 := int32(t.x[1]), int32(t.y[1])
		x2, y2 := int32(t.x[2]), int32(t.y[2])
		area := (x1-x0)*(y2-y0) - (x2-x0)*(y1-y0)
		if area == 0 {
			continue
		}
		for y := minY; y <= maxY; y++ {
			for x := minX; x <= maxX; x++ {
				work++
				px, py := int32(x), int32(y)
				w0 := (x1-px)*(y2-py) - (x2-px)*(y1-py)
				w1 := (x2-px)*(y0-py) - (x0-px)*(y2-py)
				w2 := (x0-px)*(y1-py) - (x1-px)*(y0-py)
				if area < 0 {
					w0, w1, w2 = -w0, -w1, -w2
				}
				if w0 < 0 || w1 < 0 || w2 < 0 {
					continue
				}
				// Flat z: average of the vertices (fixed point).
				z := (int32(t.z[0]) + int32(t.z[1]) + int32(t.z[2])) / 3
				idx := y*r3dW + x
				if z < zbuf[idx] {
					zbuf[idx] = z
					frame[idx] = byte(255 - z)
				}
			}
		}
	}
	return frame, work
}

func bound(a, b, c int16, max int) (int, int) {
	lo, hi := int(a), int(a)
	for _, v := range []int16{b, c} {
		if int(v) < lo {
			lo = int(v)
		}
		if int(v) > hi {
			hi = int(v)
		}
	}
	if lo < 0 {
		lo = 0
	}
	if hi > max {
		hi = max
	}
	return lo, hi
}
