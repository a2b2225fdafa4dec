package dp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/tech"
)

// hullLevel is one τmin level as offerHull sees it: the no-repeater
// bucket's (baseC, baseD) points in generation order (baseC never
// decreasing), the library widths with their Rs/w slopes, and Rs·Cp.
type hullLevel struct {
	pts     []option
	widths  []float64
	rsOverW []float64
	rsCp    float64
}

// emptyRow returns one table row of empty cells, one per library width.
func emptyRow(n int) []cell {
	row := make([]cell, n)
	for i := range row {
		row[i] = cell{d: math.Inf(1), next: -1}
	}
	return row
}

// full is full generation: every option offers to every width's cell, in
// generation order, as runLevels' width-aware loop does.
func (l hullLevel) full() []cell {
	row := emptyRow(len(l.widths))
	for i := range l.pts {
		o := &l.pts[i]
		for wi, width := range l.widths {
			row[wi].offer(l.rsCp+l.rsOverW[wi]*o.c+o.d, o.w+width, o.next, 0)
		}
	}
	return row
}

// hull runs the level through offerHull on s.
func (l hullLevel) hull(s *Solver) []cell {
	s.widths, s.rsOverW = l.widths, l.rsOverW
	s.pr.runs = append(s.pr.runs[:0], l.pts...)
	row := emptyRow(len(l.widths))
	s.offerHull(l.rsCp, row)
	return row
}

// checkHull fails unless every cell offerHull fills holds full
// generation's winner: the same delay, width and parent.
func checkHull(t *testing.T, name string, s *Solver, l hullLevel) {
	t.Helper()
	want, got := l.full(), l.hull(s)
	for wi := range want {
		if got[wi] != want[wi] {
			t.Fatalf("%s: width %d (slope %v) cell %+v, full generation keeps %+v\nlevel: %+v",
				name, wi, l.rsOverW[wi], got[wi], want[wi], l)
		}
	}
}

// TestTauMinHullMatchesFullGenerationCorpus replays every τmin level of
// 30 netgen lines per node (the chip corpus's distribution) under the
// reference candidate space and checks offerHull's cells against full
// generation's, cell by cell.
func TestTauMinHullMatchesFullGenerationCorpus(t *testing.T) {
	ref, err := ReferenceOptions()
	if err != nil {
		t.Fatal(err)
	}
	check := NewSolver()
	levels := 0
	for _, tc := range []*tech.Technology{tech.T180(), tech.T130(), tech.T90(), tech.T65()} {
		cfg, err := netgen.DefaultConfig(tc)
		if err != nil {
			t.Fatal(err)
		}
		nets, err := netgen.Corpus(3101, 30, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for ni, net := range nets {
			ev, err := delay.NewEvaluator(net, tc)
			if err != nil {
				t.Fatal(err)
			}
			s := NewSolver()
			if _, err := s.MinimumDelay(ev, ref); err != nil {
				t.Fatal(err)
			}
			// Rebuild each level's points from its downstream level, the
			// way runLevels does.
			rsCp := tc.Rs * tc.Cp
			for k := len(s.cand) - 1; k >= 0; k-- {
				off := s.lvlOff[k+1]
				var pts []option
				for di, o := range s.arena[off : off+s.lvlCnt[k+1]] {
					pts = append(pts, option{c: o.c + s.wC[k+1], d: o.d + s.wR[k+1]*o.c + s.wM[k+1], w: o.w, act: -1, next: off + int32(di)})
				}
				l := hullLevel{pts: pts, widths: s.widths, rsOverW: s.rsOverW, rsCp: rsCp}
				checkHull(t, fmt.Sprintf("%s net %d level %d", tc.Name, ni, k), check, l)
				levels++
			}
		}
	}
	if levels < 1000 {
		t.Fatalf("only %d levels replayed", levels)
	}
}

// tiedHullLevel draws a τmin level built for ties: loads on a coarse grid with
// repeats and a 1+2⁻⁵² neighbour, delays on a coarse grid or exactly on
// a few lines (collinear runs, some nudged an ulp), and slopes from a
// coarse set with repeats, so equal delays across options and widths are
// common.
func tiedHullLevel(rng *rand.Rand) hullLevel {
	var l hullLevel
	loads := []float64{0.5, 1, 1 + 0x1p-52, 2, 3, 4, 6, 8}
	c := 0.0
	for i := 4 + rng.Intn(30); i > 0; i-- {
		if rng.Intn(3) > 0 {
			c = max(c, loads[rng.Intn(len(loads))]+float64(rng.Intn(3)))
		}
		var d float64
		switch rng.Intn(3) {
		case 0:
			d = float64(rng.Intn(12))
		case 1:
			// On the line d = a − b·c.
			a, b := float64(8+rng.Intn(8)), float64(rng.Intn(3))
			d = a - b*c
		default:
			d = 24 / (1 + c)
		}
		if rng.Intn(6) == 0 {
			d = math.Nextafter(d, math.Inf(rng.Intn(2)*2-1))
		}
		l.pts = append(l.pts, option{c: c, d: d, w: float64(rng.Intn(4)), act: -1, next: int32(len(l.pts))})
	}
	slopes := []float64{4, 3, 2, 1.5, 1, 0.5, 0.25}
	s := slopes[rng.Intn(3)]
	for wi := 1 + rng.Intn(8); wi > 0; wi-- {
		l.widths = append(l.widths, float64(10*(len(l.widths)+1)))
		l.rsOverW = append(l.rsOverW, s)
		if rng.Intn(3) > 0 {
			for _, x := range slopes {
				if x < s {
					s = x
					break
				}
			}
		}
	}
	l.rsCp = float64(rng.Intn(3))
	return l
}

// scanMarginLevel is a τmin level whose cells need offerHull's scan
// margin. At slope 3 its last three options have exactly equal delays:
// the edge from vertex 2 to vertex 3 has slope −3, and option 1 lies one
// load ulp left of vertex 2 on that edge's line, just above the hull. The
// evaluated delays put vertex 2 one ulp above the other two. At the
// steeper first slope vertex 3 evaluates fastest, so the walk's pointer
// starts the slope-3 width there; a scan that stopped at the first vertex
// evaluating above the best would never reach option 1, which full
// generation keeps: it ties the best and is generated first.
func scanMarginLevel() hullLevel {
	return hullLevel{
		pts: []option{
			{c: 1.4182872907580508, d: 3.9725288757698447, act: -1, next: 0},
			{c: 1.9182872907580506, d: 1.9725288757698454, act: -1, next: 1},
			{c: 1.9182872907580508, d: 1.9725288757698447, act: -1, next: 2},
			{c: 2.168287290758051, d: 1.2225288757698447, act: -1, next: 3},
		},
		widths:  []float64{10, 20},
		rsOverW: []float64{3.0000000000000018, 3},
		rsCp:    2,
	}
}

// TestTauMinHullTies checks offerHull against full generation on a level
// within rounding of a tie (scanMarginLevel) and on thousands of
// tie-heavy levels.
func TestTauMinHullTies(t *testing.T) {
	trials := 5000
	if testing.Short() {
		trials = 1000
	}
	rng := rand.New(rand.NewSource(29))
	s := NewSolver()
	checkHull(t, "scan margin", s, scanMarginLevel())
	for trial := 0; trial < trials; trial++ {
		checkHull(t, fmt.Sprintf("trial %d", trial), s, tiedHullLevel(rng))
	}
}

// FuzzTauMinHull decodes arbitrary bytes into a τmin level — loads and
// delays on a small grid, so collinear and tied points are common, some
// nudged an ulp, and a coarse library of slopes — and checks every cell's
// winner (delay, width and parent) against full generation.
func FuzzTauMinHull(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(3), uint8(1))
	f.Add([]byte{0, 8, 1, 7, 2, 6, 3, 5, 4, 4, 5, 3, 6, 2, 7, 1}, uint8(5), uint8(0))
	f.Add([]byte{0, 4, 0, 4, 1, 3, 2, 2, 3, 1, 4, 0, 4, 0}, uint8(7), uint8(2))
	f.Add([]byte{3, 9, 3, 9, 3, 9, 130, 9, 6, 3, 6, 131, 9, 0}, uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, nb, rsCp uint8) {
		var l hullLevel
		c := 0.0
		for i := 0; i+2 <= len(data) && i < 64*2; i += 2 {
			c += float64(data[i] % 4)
			d := float64(data[i+1] % 16)
			if data[i]&0x80 != 0 {
				d = math.Nextafter(d, math.Inf(1))
			}
			if data[i]&0x40 != 0 {
				c = math.Nextafter(c, math.Inf(1))
			}
			l.pts = append(l.pts, option{c: c, d: d, w: float64(data[i] >> 4 & 3), act: -1, next: int32(i / 2)})
		}
		// Slopes fall as widths grow, on a coarse grid with repeats.
		s := 8.0
		for wi := 0; wi < 1+int(nb%10); wi++ {
			l.widths = append(l.widths, float64(10*(wi+1)))
			l.rsOverW = append(l.rsOverW, s)
			if (int(nb)>>wi)&1 == 0 {
				s /= 2
			}
		}
		l.rsCp = float64(rsCp % 4)
		checkHull(t, "fuzz", NewSolver(), l)
	})
}
