// Package conv defines the convolution specification shared by every
// execution engine, plus direct reference implementations of the three
// convolution computations of CNN training:
//
//	FP  — output activations          (paper Eq. 2)
//	BP  — input-error gradients       (paper Eq. 3)
//	SGD — delta-weights               (paper Eq. 4)
//
// The reference implementations are deliberately plain loop nests over the
// defining equations; they are the correctness oracle every optimized
// engine (unfold+GEMM, stencil, sparse) is tested against, and the
// flop/byte accounting here feeds the AIT characterization of §3.
package conv

import (
	"fmt"
	"math"
	"strings"
)

// Spec is the 2-D convolution geometry, matching the paper's 5-tuple
// ⟨Nf, Fy, Fx, sy, sx⟩ plus the input geometry it is applied to, extended
// with the generalized attributes of the design-space explorer: zero
// padding (Px, Py), dilation (Dx, Dy) and channel groups (Groups).
//
// The zero value of every extension field means "plain": no padding, unit
// dilation, a single group. That convention keeps the zero-extended spec
// byte-compatible with the original 8-field struct everywhere a spec is
// serialized (plan-cache keys in particular: a plain spec marshals to the
// exact JSON it produced before the fields existed).
type Spec struct {
	Nx, Ny int // input spatial width (x) and height (y)
	Nc     int // input channels  (paper: number of input features)
	Nf     int // output features
	Fx, Fy int // kernel width and height
	Sx, Sy int // strides

	// Px, Py are the zero-padding amounts applied symmetrically to each
	// spatial border of the input. 0 = "valid" convolution (the original
	// behavior).
	Px, Py int `json:",omitempty"`
	// Dx, Dy are the kernel dilations: tap (kx, ky) reads input offset
	// (kx·Dx, ky·Dy). 0 is treated as 1 (no dilation).
	Dx, Dy int `json:",omitempty"`
	// Groups partitions channels: input channels and output features are
	// split into Groups equal slices and feature group g convolves only
	// input group g (Groups == Nc is depthwise). 0 is treated as 1.
	Groups int `json:",omitempty"`
}

// DilX returns the effective x dilation (Dx, with 0 meaning 1).
func (s Spec) DilX() int {
	if s.Dx < 1 {
		return 1
	}
	return s.Dx
}

// DilY returns the effective y dilation (Dy, with 0 meaning 1).
func (s Spec) DilY() int {
	if s.Dy < 1 {
		return 1
	}
	return s.Dy
}

// G returns the effective group count (Groups, with 0 meaning 1).
func (s Spec) G() int {
	if s.Groups < 1 {
		return 1
	}
	return s.Groups
}

// GroupNc returns the input channels per group, Nc/G.
func (s Spec) GroupNc() int { return s.Nc / s.G() }

// GroupNf returns the output features per group, Nf/G.
func (s Spec) GroupNf() int { return s.Nf / s.G() }

// KxExtent returns the effective kernel width (Fx−1)·Dx + 1 — the input
// span a kernel row covers under dilation.
func (s Spec) KxExtent() int { return (s.Fx-1)*s.DilX() + 1 }

// KyExtent returns the effective kernel height (Fy−1)·Dy + 1.
func (s Spec) KyExtent() int { return (s.Fy-1)*s.DilY() + 1 }

// Plain reports whether the spec uses none of the generalized attributes
// (no padding, unit dilation, one group) — the geometry every engine
// handled before the spec was generalized. Fast paths that predate the
// generalization gate on Plain and are byte-for-byte unchanged on it.
func (s Spec) Plain() bool {
	return s.Px == 0 && s.Py == 0 && s.DilX() == 1 && s.DilY() == 1 && s.G() == 1
}

// Canon returns the spec with the generalized fields normalized to their
// zero-value spellings (dilation 1 → 0, groups 1 → 0), so that two specs
// describing the same convolution compare equal and hash/serialize
// identically — plan-cache keys use the canonical form, which keeps plain
// dense-band entries written before the fields existed valid.
func (s Spec) Canon() Spec {
	if s.Dx == 1 {
		s.Dx = 0
	}
	if s.Dy == 1 {
		s.Dy = 0
	}
	if s.Groups == 1 {
		s.Groups = 0
	}
	if s.Px < 0 {
		s.Px = 0
	}
	if s.Py < 0 {
		s.Py = 0
	}
	return s
}

// Validate reports whether the spec describes a computable convolution.
func (s Spec) Validate() error {
	switch {
	case s.Nx < 1 || s.Ny < 1:
		return fmt.Errorf("conv: non-positive input size %dx%d", s.Nx, s.Ny)
	case s.Nc < 1 || s.Nf < 1:
		return fmt.Errorf("conv: non-positive feature counts Nc=%d Nf=%d", s.Nc, s.Nf)
	case s.Fx < 1 || s.Fy < 1:
		return fmt.Errorf("conv: non-positive kernel %dx%d", s.Fx, s.Fy)
	case s.Sx < 1 || s.Sy < 1:
		return fmt.Errorf("conv: non-positive stride %dx%d", s.Sx, s.Sy)
	case s.Px < 0 || s.Py < 0:
		return fmt.Errorf("conv: negative padding %dx%d", s.Px, s.Py)
	case s.Dx < 0 || s.Dy < 0:
		return fmt.Errorf("conv: negative dilation %dx%d", s.Dx, s.Dy)
	case s.Groups < 0:
		return fmt.Errorf("conv: negative group count %d", s.Groups)
	case s.Nc%s.G() != 0 || s.Nf%s.G() != 0:
		return fmt.Errorf("conv: groups=%d does not divide channels Nc=%d / features Nf=%d",
			s.G(), s.Nc, s.Nf)
	case !extentFits(s.Fx, s.DilX(), s.Nx, s.Px) || !extentFits(s.Fy, s.DilY(), s.Ny, s.Py):
		// The effective (dilated) kernel extent must fit the padded input,
		// or there is no valid output position.
		return fmt.Errorf("conv: effective kernel %dx%d (kernel %dx%d, dilation %dx%d) larger than padded input %dx%d",
			s.KxExtent(), s.KyExtent(), s.Fx, s.Fy, s.DilX(), s.DilY(), s.Nx+2*s.Px, s.Ny+2*s.Py)
	}
	return nil
}

// extentFits reports whether the dilated kernel extent (f−1)·d + 1 fits
// the padded input n + 2·p, for f, d, n ≥ 1 and p ≥ 0, without computing
// either side where it could overflow int: a padded size past
// math.MaxInt does not fit, and (f−1)·d ≤ n + 2p − 1 is tested as
// f−1 ≤ ⌊(n + 2p − 1)/d⌋.
func extentFits(f, d, n, p int) bool {
	if p > (math.MaxInt-n)/2 {
		return false
	}
	return f-1 <= (n+2*p-1)/d
}

// MustValidate panics if the spec is invalid.
func (s Spec) MustValidate() {
	if err := s.Validate(); err != nil {
		panic(err)
	}
}

// OutX returns the output width (Nx + 2·Px − KxExtent)/Sx + 1. For plain
// specs this is the original (Nx − Fx)/Sx + 1.
func (s Spec) OutX() int { return (s.Nx+2*s.Px-s.KxExtent())/s.Sx + 1 }

// OutY returns the output height (Ny + 2·Py − KyExtent)/Sy + 1.
func (s Spec) OutY() int { return (s.Ny+2*s.Py-s.KyExtent())/s.Sy + 1 }

// InputSize returns |I| = Nx·Ny·Nc (Eq. 6).
func (s Spec) InputSize() int64 { return int64(s.Nx) * int64(s.Ny) * int64(s.Nc) }

// WeightSize returns |W| = Nf·Fx·Fy·(Nc/G) (Eq. 7; each feature convolves
// only its group's channels).
func (s Spec) WeightSize() int64 {
	return int64(s.Nf) * int64(s.Fx) * int64(s.Fy) * int64(s.GroupNc())
}

// WeightDims returns the canonical weight tensor shape
// [Nf][Nc/G][Fy][Fx].
func (s Spec) WeightDims() []int { return []int{s.Nf, s.GroupNc(), s.Fy, s.Fx} }

// OutputSize returns |O| = Nf·OutX·OutY. For unit stride this is Eq. 8's
// Nf·(Nx−Fx+1)·(Ny−Fy+1).
func (s Spec) OutputSize() int64 { return int64(s.Nf) * int64(s.OutX()) * int64(s.OutY()) }

// UnfoldedSize returns |U|, the element count of the unfolded input matrix:
// one row per output pixel holding the (Nc/G)·Fx·Fy taps of each of the G
// groups — Nc·Fx·Fy values per pixel in total, matching §3.1 for G = 1.
func (s Spec) UnfoldedSize() int64 {
	return int64(s.OutX()) * int64(s.OutY()) * int64(s.Nc) * int64(s.Fx) * int64(s.Fy)
}

// FlopsFP returns |A| for forward propagation: 2 flops (mul+add) per
// kernel-tap per output element = 2·Nf·OutX·OutY·(Nc/G)·Fy·Fx. This is the
// exact form of the paper's Eq. 5 (which writes Nx·Ny for the spatial
// extent of the output) generalized to grouped convolution; padding taps
// that fall outside the input are counted (they multiply an implicit
// zero), keeping the flop model a pure function of the geometry.
func (s Spec) FlopsFP() int64 {
	return 2 * s.OutputSize() * int64(s.GroupNc()) * int64(s.Fy) * int64(s.Fx)
}

// FlopsBPInput returns the flop count of the input-error gradient (Eq. 3),
// which touches the same (output, tap) pairs as FP.
func (s Spec) FlopsBPInput() int64 { return s.FlopsFP() }

// FlopsBPWeights returns the flop count of the delta-weight computation
// (Eq. 4), also the same tap structure.
func (s Spec) FlopsBPWeights() int64 { return s.FlopsFP() }

// String renders the spec in the paper's Table 1/2 column format:
// Nx(=Ny),Nf,Nc,Fx(=Fy),sx(=sy), with compact suffixes for the
// generalized attributes when present (",p1" padding, ",d2" dilation,
// ",g4" groups). Plain specs render exactly as before the generalization.
func (s Spec) String() string {
	var b strings.Builder
	if s.Nx == s.Ny && s.Fx == s.Fy && s.Sx == s.Sy {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d", s.Nx, s.Nf, s.Nc, s.Fx, s.Sx)
	} else {
		fmt.Fprintf(&b, "%dx%d,%d,%d,%dx%d,%dx%d", s.Nx, s.Ny, s.Nf, s.Nc, s.Fx, s.Fy, s.Sx, s.Sy)
	}
	if s.Px != 0 || s.Py != 0 {
		if s.Px == s.Py {
			fmt.Fprintf(&b, ",p%d", s.Px)
		} else {
			fmt.Fprintf(&b, ",p%dx%d", s.Px, s.Py)
		}
	}
	if s.DilX() != 1 || s.DilY() != 1 {
		if s.DilX() == s.DilY() {
			fmt.Fprintf(&b, ",d%d", s.DilX())
		} else {
			fmt.Fprintf(&b, ",d%dx%d", s.DilX(), s.DilY())
		}
	}
	if s.G() != 1 {
		fmt.Fprintf(&b, ",g%d", s.G())
	}
	return b.String()
}

// Square is a convenience constructor for square-geometry specs
// (N, Nf, Nc, F, s), the form both paper tables use.
func Square(n, nf, nc, f, stride int) Spec {
	return Spec{Nx: n, Ny: n, Nc: nc, Nf: nf, Fx: f, Fy: f, Sx: stride, Sy: stride}
}
