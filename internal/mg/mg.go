// Package mg implements a real geometric multigrid solver for the 3D
// Poisson equation plus a preconditioned GMRES driver. It is the substrate
// behind the hypre/BoomerAMG simulator (paper Sections 6.2 and 6.6/Table 4):
// the tuning parameters that matter for hypre — smoother choice and weight,
// sweep counts, cycle type, coarsening aggressiveness, transfer operators,
// coarse-grid threshold, GMRES restart — change the *actual iteration count*
// of genuine solves here, so the tuner optimizes real convergence behaviour
// rather than a made-up response surface.
package mg

import (
	"errors"
	"math"
)

// Smoother selects the relaxation scheme.
type Smoother int

const (
	// Jacobi is weighted (damped) Jacobi.
	Jacobi Smoother = iota
	// GaussSeidel is lexicographic Gauss–Seidel.
	GaussSeidel
	// SOR is successive over-relaxation with weight Omega.
	SOR
	// SSOR is a symmetric (forward+backward) SOR sweep.
	SSOR
	// Chebyshev is degree-k Chebyshev polynomial smoothing (hypre's
	// parallel-friendly default; see chebyshev.go).
	Chebyshev
)

// SmootherNames lists categorical labels in Smoother value order.
var SmootherNames = []string{"jacobi", "gauss-seidel", "SOR", "SSOR", "chebyshev"}

// Transfer selects the intergrid transfer operator.
type Transfer int

const (
	// Injection samples/copies values directly.
	Injection Transfer = iota
	// Weighted is full-weighting restriction / trilinear interpolation.
	Weighted
)

// TransferNames lists categorical labels in Transfer value order.
var TransferNames = []string{"injection", "weighted"}

// Cycle selects the multigrid cycle shape.
type Cycle int

const (
	// VCycle visits each coarse level once.
	VCycle Cycle = iota
	// WCycle visits each coarse level twice.
	WCycle
)

// CycleNames lists categorical labels in Cycle value order.
var CycleNames = []string{"V", "W"}

// Options configures the hierarchy and cycling (the hypre-style knobs).
type Options struct {
	Smoother     Smoother
	Omega        float64 // relaxation weight for Jacobi/SOR/SSOR
	ChebyDegree  int     // Chebyshev polynomial degree (default 2)
	PreSweeps    int
	PostSweeps   int
	Cycle        Cycle
	CoarsenRatio int      // 2 (standard) or 4 (aggressive)
	Restrict     Transfer // restriction operator
	Interp       Transfer // prolongation operator
	CoarseSize   int      // stop coarsening when every dim ≤ this
	MaxLevels    int      // hierarchy depth cap
}

func (o *Options) defaults() {
	if o.Omega <= 0 {
		o.Omega = 0.8
	}
	if o.PreSweeps < 0 {
		o.PreSweeps = 0
	}
	if o.PostSweeps < 0 {
		o.PostSweeps = 0
	}
	if o.PreSweeps+o.PostSweeps == 0 {
		o.PostSweeps = 1
	}
	if o.CoarsenRatio < 2 {
		o.CoarsenRatio = 2
	}
	if o.CoarseSize < 2 {
		o.CoarseSize = 4
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 25
	}
}

// level is one grid in the hierarchy.
type level struct {
	nx, ny, nz       int
	hx2i, hy2i, hz2i float64 // 1/h² per dimension
	diag             float64 // 2(hx2i + hy2i + hz2i)
	lambdaMax        float64 // cached spectral bound for Chebyshev smoothing
	u, b, r          []float64
}

func (l *level) n() int { return l.nx * l.ny * l.nz }

func (l *level) idx(x, y, z int) int { return (z*l.ny+y)*l.nx + x }

// Hierarchy is a built multigrid hierarchy for one grid size.
type Hierarchy struct {
	opts   Options
	levels []*level
	// Flops counts stencil work performed (approximate flop count), so the
	// caller can convert real iteration behaviour into modeled runtime.
	Flops int64
}

// NewHierarchy builds the level stack for an nx×ny×nz Poisson problem on the
// unit cube with Dirichlet boundaries.
func NewHierarchy(nx, ny, nz int, opts Options) (*Hierarchy, error) {
	if nx < 2 || ny < 2 || nz < 2 {
		return nil, errors.New("mg: grid must be at least 2 points per dimension")
	}
	opts.defaults()
	h := &Hierarchy{opts: opts}
	cx, cy, cz := nx, ny, nz
	for len(h.levels) < opts.MaxLevels {
		lv := newLevel(cx, cy, cz)
		h.levels = append(h.levels, lv)
		if cx <= opts.CoarseSize && cy <= opts.CoarseSize && cz <= opts.CoarseSize {
			break
		}
		r := opts.CoarsenRatio
		coarsen := func(n int) int {
			c := n / r
			if c < 2 {
				c = 2
			}
			return c
		}
		ncx, ncy, ncz := coarsen(cx), coarsen(cy), coarsen(cz)
		if ncx == cx && ncy == cy && ncz == cz {
			break
		}
		cx, cy, cz = ncx, ncy, ncz
	}
	return h, nil
}

func newLevel(nx, ny, nz int) *level {
	hx := 1.0 / float64(nx+1)
	hy := 1.0 / float64(ny+1)
	hz := 1.0 / float64(nz+1)
	lv := &level{
		nx: nx, ny: ny, nz: nz,
		hx2i: 1 / (hx * hx), hy2i: 1 / (hy * hy), hz2i: 1 / (hz * hz),
	}
	lv.diag = 2 * (lv.hx2i + lv.hy2i + lv.hz2i)
	n := lv.n()
	lv.u = make([]float64, n)
	lv.b = make([]float64, n)
	lv.r = make([]float64, n)
	return lv
}

// Levels returns the number of grids in the hierarchy.
func (h *Hierarchy) Levels() int { return len(h.levels) }

// applyA computes out = A·u for the 7-point Laplacian at level l.
func (h *Hierarchy) applyA(l *level, u, out []float64) {
	for z := 0; z < l.nz; z++ {
		for y := 0; y < l.ny; y++ {
			base := (z*l.ny + y) * l.nx
			for x := 0; x < l.nx; x++ {
				i := base + x
				v := l.diag * u[i]
				if x > 0 {
					v -= l.hx2i * u[i-1]
				}
				if x < l.nx-1 {
					v -= l.hx2i * u[i+1]
				}
				if y > 0 {
					v -= l.hy2i * u[i-l.nx]
				}
				if y < l.ny-1 {
					v -= l.hy2i * u[i+l.nx]
				}
				if z > 0 {
					v -= l.hz2i * u[i-l.nx*l.ny]
				}
				if z < l.nz-1 {
					v -= l.hz2i * u[i+l.nx*l.ny]
				}
				out[i] = v
			}
		}
	}
	h.Flops += int64(13 * l.n())
}

// residual computes r = b - A·u.
func (h *Hierarchy) residual(l *level) {
	h.applyA(l, l.u, l.r)
	for i := range l.r {
		l.r[i] = l.b[i] - l.r[i]
	}
	h.Flops += int64(l.n())
}

// smooth runs one relaxation sweep on level l.
func (h *Hierarchy) smooth(l *level) {
	switch h.opts.Smoother {
	case Jacobi:
		h.applyA(l, l.u, l.r)
		w := h.opts.Omega / l.diag
		for i := range l.u {
			l.u[i] += w * (l.b[i] - l.r[i])
		}
		h.Flops += int64(3 * l.n())
	case Chebyshev:
		h.chebySmooth(l, h.opts.ChebyDegree)
	case GaussSeidel, SOR, SSOR:
		omega := h.opts.Omega
		if h.opts.Smoother == GaussSeidel {
			omega = 1
		}
		h.sorSweep(l, omega, false)
		if h.opts.Smoother == SSOR {
			h.sorSweep(l, omega, true)
		}
	}
}

// sorSweep performs an in-place SOR sweep (backward when reverse).
func (h *Hierarchy) sorSweep(l *level, omega float64, reverse bool) {
	n := l.n()
	for k := 0; k < n; k++ {
		i := k
		if reverse {
			i = n - 1 - k
		}
		z := i / (l.nx * l.ny)
		rem := i % (l.nx * l.ny)
		y := rem / l.nx
		x := rem % l.nx
		s := l.b[i]
		if x > 0 {
			s += l.hx2i * l.u[i-1]
		}
		if x < l.nx-1 {
			s += l.hx2i * l.u[i+1]
		}
		if y > 0 {
			s += l.hy2i * l.u[i-l.nx]
		}
		if y < l.ny-1 {
			s += l.hy2i * l.u[i+l.nx]
		}
		if z > 0 {
			s += l.hz2i * l.u[i-l.nx*l.ny]
		}
		if z < l.nz-1 {
			s += l.hz2i * l.u[i+l.nx*l.ny]
		}
		gs := s / l.diag
		l.u[i] = (1-omega)*l.u[i] + omega*gs
	}
	h.Flops += int64(15 * n)
}

// restrictTo maps the residual of fine level lf into the rhs of coarse level
// lc.
func (h *Hierarchy) restrictTo(lf, lc *level) {
	rx := float64(lf.nx) / float64(lc.nx)
	ry := float64(lf.ny) / float64(lc.ny)
	rz := float64(lf.nz) / float64(lc.nz)
	for z := 0; z < lc.nz; z++ {
		for y := 0; y < lc.ny; y++ {
			for x := 0; x < lc.nx; x++ {
				ci := lc.idx(x, y, z)
				fx := int(float64(x) * rx)
				fy := int(float64(y) * ry)
				fz := int(float64(z) * rz)
				if h.opts.Restrict == Injection {
					lc.b[ci] = lf.r[lf.idx(minI(fx, lf.nx-1), minI(fy, lf.ny-1), minI(fz, lf.nz-1))]
					continue
				}
				// Box full-weighting over the fine cell.
				sum, cnt := 0.0, 0
				for dz := 0; dz < int(math.Ceil(rz)); dz++ {
					for dy := 0; dy < int(math.Ceil(ry)); dy++ {
						for dx := 0; dx < int(math.Ceil(rx)); dx++ {
							X, Y, Z := fx+dx, fy+dy, fz+dz
							if X < lf.nx && Y < lf.ny && Z < lf.nz {
								sum += lf.r[lf.idx(X, Y, Z)]
								cnt++
							}
						}
					}
				}
				if cnt > 0 {
					lc.b[ci] = sum / float64(cnt)
				}
			}
		}
	}
	h.Flops += int64(8 * lc.n())
}

// prolongAdd interpolates the coarse correction into the fine solution.
func (h *Hierarchy) prolongAdd(lf, lc *level) {
	sx := float64(lc.nx) / float64(lf.nx)
	sy := float64(lc.ny) / float64(lf.ny)
	sz := float64(lc.nz) / float64(lf.nz)
	for z := 0; z < lf.nz; z++ {
		for y := 0; y < lf.ny; y++ {
			for x := 0; x < lf.nx; x++ {
				fi := lf.idx(x, y, z)
				cx := float64(x) * sx
				cy := float64(y) * sy
				cz := float64(z) * sz
				if h.opts.Interp == Injection {
					lf.u[fi] += lc.u[lc.idx(minI(int(cx), lc.nx-1), minI(int(cy), lc.ny-1), minI(int(cz), lc.nz-1))]
					continue
				}
				lf.u[fi] += h.trilinear(lc, cx, cy, cz)
			}
		}
	}
	h.Flops += int64(8 * lf.n())
}

func (h *Hierarchy) trilinear(lc *level, cx, cy, cz float64) float64 {
	x0 := minI(int(cx), lc.nx-1)
	y0 := minI(int(cy), lc.ny-1)
	z0 := minI(int(cz), lc.nz-1)
	x1 := minI(x0+1, lc.nx-1)
	y1 := minI(y0+1, lc.ny-1)
	z1 := minI(z0+1, lc.nz-1)
	tx := cx - float64(x0)
	ty := cy - float64(y0)
	tz := cz - float64(z0)
	if tx > 1 {
		tx = 1
	}
	if ty > 1 {
		ty = 1
	}
	if tz > 1 {
		tz = 1
	}
	c := func(x, y, z int) float64 { return lc.u[lc.idx(x, y, z)] }
	return (1-tz)*((1-ty)*((1-tx)*c(x0, y0, z0)+tx*c(x1, y0, z0))+
		ty*((1-tx)*c(x0, y1, z0)+tx*c(x1, y1, z0))) +
		tz*((1-ty)*((1-tx)*c(x0, y0, z1)+tx*c(x1, y0, z1))+
			ty*((1-tx)*c(x0, y1, z1)+tx*c(x1, y1, z1)))
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// cycle runs one multigrid cycle starting at level k (solution in levels[k].u,
// rhs in levels[k].b).
func (h *Hierarchy) cycle(k int) {
	l := h.levels[k]
	if k == len(h.levels)-1 {
		// Coarse solve: enough GS sweeps to be effectively exact.
		for s := 0; s < 60; s++ {
			h.sorSweep(l, 1, false)
		}
		return
	}
	for s := 0; s < h.opts.PreSweeps; s++ {
		h.smooth(l)
	}
	h.residual(l)
	lc := h.levels[k+1]
	h.restrictTo(l, lc)
	for i := range lc.u {
		lc.u[i] = 0
	}
	visits := 1
	if h.opts.Cycle == WCycle {
		visits = 2
	}
	for v := 0; v < visits; v++ {
		h.cycle(k + 1)
	}
	h.prolongAdd(l, lc)
	for s := 0; s < h.opts.PostSweeps; s++ {
		h.smooth(l)
	}
}

// Precondition applies one multigrid cycle to rhs v (zero initial guess) and
// returns the approximate solution of A·z = v. This is the preconditioner
// GMRES uses.
func (h *Hierarchy) Precondition(v []float64) []float64 {
	fine := h.levels[0]
	copy(fine.b, v)
	for i := range fine.u {
		fine.u[i] = 0
	}
	h.cycle(0)
	out := make([]float64, len(v))
	copy(out, fine.u)
	return out
}

// Apply computes A·u on the finest grid into a new slice.
func (h *Hierarchy) Apply(u []float64) []float64 {
	fine := h.levels[0]
	out := make([]float64, len(u))
	h.applyA(fine, u, out)
	return out
}

// FineN returns the finest-grid unknown count.
func (h *Hierarchy) FineN() int { return h.levels[0].n() }
