package apps

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"vidi/internal/shell"
	"vidi/internal/sim"
)

// sssp is the open-source single-source-shortest-paths accelerator: a
// Bellman-Ford engine over an edge list held in card DRAM. It is the
// paper's most compute-bound workload — 397 s of execution producing only
// 2 MB of trace, a 10-million-fold reduction — because the kernel iterates
// over the graph for many rounds between rare I/O transactions.
type ssspState struct {
	nodes int
	edges []edge
	src   uint32
}

type edge struct{ from, to, w uint32 }

func init() {
	register("sssp", func(scale int) App {
		st := &ssspState{nodes: 128 * scale}
		a := &computeApp{
			name: "sssp",
			desc: "SSSP accelerator: Bellman-Ford over an edge list in card DRAM",
		}
		a.buildKernel = func(a *computeApp) {
			a.kern.Compute = func() int {
				hdr := a.card().Read(InBase, 8)
				nEdges := int(binary.LittleEndian.Uint32(hdr))
				src := binary.LittleEndian.Uint32(hdr[4:])
				raw := a.card().Read(InBase+8, nEdges*12)
				edges := make([]edge, nEdges)
				for i := range edges {
					off := i * 12
					edges[i] = edge{
						from: binary.LittleEndian.Uint32(raw[off:]),
						to:   binary.LittleEndian.Uint32(raw[off+4:]),
						w:    binary.LittleEndian.Uint32(raw[off+8:]),
					}
				}
				dist, work := bellmanFord(st.nodes, edges, src)
				out := make([]byte, 0, len(dist)*4)
				for _, d := range dist {
					out = binary.LittleEndian.AppendUint32(out, d)
				}
				a.card().Write(OutBase, out)
				// The accelerator answers ssspQueries independent queries
				// per invocation at one edge relaxation per cycle.
				return work*ssspQueries + 100
			}
		}
		a.program = func(a *computeApp, cpu *shell.CPU) {
			rng := sim.NewRand(0x555)
			st.src = 0
			st.edges = nil
			// A connected ring plus heavy random chords. Ring edges are
			// stored in reverse order so each Bellman-Ford sweep extends the
			// frontier by one node — the adversarial edge ordering that
			// forces the full O(V·E) relaxation count.
			for i := st.nodes - 1; i >= 0; i-- {
				st.edges = append(st.edges, edge{uint32(i), uint32((i + 1) % st.nodes), uint32(1 + rng.Intn(16))})
			}
			for i := 0; i < st.nodes*2; i++ {
				st.edges = append(st.edges, edge{uint32(rng.Intn(st.nodes)), uint32(rng.Intn(st.nodes)), uint32(500 + rng.Intn(500))})
			}
			blob := make([]byte, 8+len(st.edges)*12)
			binary.LittleEndian.PutUint32(blob, uint32(len(st.edges)))
			binary.LittleEndian.PutUint32(blob[4:], st.src)
			for i, e := range st.edges {
				binary.LittleEndian.PutUint32(blob[8+i*12:], e.from)
				binary.LittleEndian.PutUint32(blob[8+i*12+4:], e.to)
				binary.LittleEndian.PutUint32(blob[8+i*12+8:], e.w)
			}
			a.runOnce(cpu, blob, st.nodes*4)
		}
		a.check = func(a *computeApp) error {
			dist, _ := bellmanFord(st.nodes, st.edges, st.src)
			want := make([]byte, st.nodes*4)
			for i, d := range dist {
				binary.LittleEndian.PutUint32(want[i*4:], d)
			}
			if !bytes.Equal(a.received, want) {
				return fmt.Errorf("sssp: distances differ from golden Bellman-Ford")
			}
			return nil
		}
		return a
	})
}

// ssspQueries is the number of independent shortest-path queries one
// kernel invocation answers; it sets the benchmark's compute/IO ratio
// (the paper's SSSP runs 397 s while producing only 2 MB of trace).
const ssspQueries = 40

const ssspInf = ^uint32(0)

// bellmanFord relaxes edges until a fixed point and returns the distance
// vector plus the relaxation count (one per cycle in hardware).
func bellmanFord(nodes int, edges []edge, src uint32) ([]uint32, int) {
	dist := make([]uint32, nodes)
	for i := range dist {
		dist[i] = ssspInf
	}
	dist[src] = 0
	work := 0
	for round := 0; round < nodes; round++ {
		changed := false
		for _, e := range edges {
			work++
			if dist[e.from] == ssspInf {
				continue
			}
			if nd := dist[e.from] + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist, work
}
