// Package kern is the inner-loop layer: the loops that more than one
// convolution engine runs. The engines keep only their drivers — offsets,
// panel layouts, ragged edges — and call these for the per-element work.
//
// Each exported primitive is a dispatch wrapper over two bodies: the scalar
// Go body in this file and, on amd64 CPUs with AVX2 (checked once, by CPUID
// and XGETBV in kern_amd64.s), an assembly body in kern_amd64.s. The scalar
// bodies are the build off amd64, the fallback without AVX2, and the
// oracle the assembly is tested against.
//
// Invariant: every primitive keeps one accumulator per output element and
// walks its reduction in increasing index order, so replacing a loop by a
// wider body of the same primitive is bit-transparent — results are
// identical to the one-line scalar loop each function documents, including
// ±0, ±Inf and subnormals, and NaN where the loop gives NaN (kern_test.go
// pins this with math.Float32bits). The assembly keeps it by running every
// lane's s += a·b as VMULPS then VADDPS, never a fused multiply-add: a
// fused body would round once where the scalar loop rounds twice.
//
// The loops are written in the bounds-check-eliminated streaming-slice
// idiom (scripts/bce_check.sh gates this file):
//
//   - Streaming slices: instead of indexing a fixed slice with a loop
//     counter, the loop conditions bound len() of every operand and the
//     slices are re-sliced forward each iteration ("for len(d) >= 8 { ...
//     d = d[8:] }"). Loads at constant offsets are then provably in bounds.
//   - One shared length: when several slices are walked by one counter,
//     they are cut to a common length first so the prove pass sees every
//     index in range.
package kern

// Axpy computes dst[i] += a·src[i] for i < min(len(dst), len(src)).
func Axpy(dst, src []float32, a float32) {
	if hasAVX2 {
		axpyAVX2(dst, src, a)
		return
	}
	axpy(dst, src, a)
}

// axpy is Axpy's scalar body. It consumes 8 elements at a time, then a
// straight-line 4/2/1 remainder instead of a counted loop: at the short
// rows of few-channel layers the mispredicted exit of a 3-trip tail loop
// costs more than the arithmetic.
func axpy(dst, src []float32, a float32) {
	for len(dst) >= 8 && len(src) >= 8 {
		dst[0] += a * src[0]
		dst[1] += a * src[1]
		dst[2] += a * src[2]
		dst[3] += a * src[3]
		dst[4] += a * src[4]
		dst[5] += a * src[5]
		dst[6] += a * src[6]
		dst[7] += a * src[7]
		dst, src = dst[8:], src[8:]
	}
	if len(dst) >= 4 && len(src) >= 4 {
		dst[0] += a * src[0]
		dst[1] += a * src[1]
		dst[2] += a * src[2]
		dst[3] += a * src[3]
		dst, src = dst[4:], src[4:]
	}
	if len(dst) >= 2 && len(src) >= 2 {
		dst[0] += a * src[0]
		dst[1] += a * src[1]
		dst, src = dst[2:], src[2:]
	}
	if len(dst) >= 1 && len(src) >= 1 {
		dst[0] += a * src[0]
	}
}

// AxpyRuns computes dst += a·src over consecutive runs of n elements: run r
// starts at dst[r·dstStride] and src[r·srcStride], and the walk ends when
// either side has no full run left. A stride ≤ 0 on either side means one
// run. spkernel's pointer-shifting BP runs it once per stored EO non-zero,
// with one side an HWC image window (stride = one image row) and the other
// a packed [ky][kx·c] block (stride = n).
//
// The assembly body walks every run in one call, with the n%8 tail mask
// built once: runs are short (15 floats on CIFAR conv0), and cannot afford
// a call each.
func AxpyRuns(dst, src []float32, a float32, n, dstStride, srcStride int) {
	if hasAVX2 {
		axpyRunsAVX2(dst, src, a, n, dstStride, srcStride)
		return
	}
	axpyRuns(dst, src, a, n, dstStride, srcStride)
}

// axpyRuns is AxpyRuns' scalar body. The run body is axpy's, written out
// here rather than called: a call per run, or a single walk shared with
// axpy, measured slower at 15-float runs. Kept out of line: inlined into
// the driver's loop nest the run loop's induction variable spills to the
// stack.
//
//go:noinline
func axpyRuns(dst, src []float32, a float32, n, dstStride, srcStride int) {
	for n > 0 && len(dst) >= n && len(src) >= n {
		d, s := dst[:n], src[:n]
		for len(d) >= 8 && len(s) >= 8 {
			d[0] += a * s[0]
			d[1] += a * s[1]
			d[2] += a * s[2]
			d[3] += a * s[3]
			d[4] += a * s[4]
			d[5] += a * s[5]
			d[6] += a * s[6]
			d[7] += a * s[7]
			d, s = d[8:], s[8:]
		}
		if len(d) >= 4 && len(s) >= 4 {
			d[0] += a * s[0]
			d[1] += a * s[1]
			d[2] += a * s[2]
			d[3] += a * s[3]
			d, s = d[4:], s[4:]
		}
		if len(d) >= 2 && len(s) >= 2 {
			d[0] += a * s[0]
			d[1] += a * s[1]
			d, s = d[2:], s[2:]
		}
		if len(d) >= 1 && len(s) >= 1 {
			d[0] += a * s[0]
		}
		if dstStride <= 0 || srcStride <= 0 ||
			uint(dstStride) > uint(len(dst)) || uint(srcStride) > uint(len(src)) {
			return
		}
		dst, src = dst[dstStride:], src[srcStride:]
	}
}

// NonZeros writes the indices i of the non-zero x[i], in ascending order,
// to the front of idx and returns their count. x is cut to len(idx) first,
// so the list always fits. A value counts as zero exactly when Go's
// v != 0 is false: ±0 are zero, NaN is not.
//
// The assembly body tests eight floats per compare (VCMPPS, NEQ_UQ) and
// visits only the set bits of each movemask, so a zero block costs one
// compare and one branch.
func NonZeros(idx []int32, x []float32) int {
	x = x[:min(len(x), len(idx))]
	if hasAVX2 {
		return nonZerosAVX2(idx, x)
	}
	return nonZeros(idx, x)
}

// nonZeros is NonZeros' scalar body. The full-list test never fires after
// NonZeros' cut; it lets the prover drop the store's bounds check.
func nonZeros(idx []int32, x []float32) int {
	out := idx
	for i, v := range x {
		if v != 0 {
			if len(out) == 0 {
				break
			}
			out[0] = int32(i)
			out = out[1:]
		}
	}
	return len(idx) - len(out)
}

// BlockVectors is how many 8-float vectors a held Block keeps in
// registers. Callers with larger blocks walk them one slice of at most
// this many at a time.
const BlockVectors = 12

// Block is a planned block accumulation: rows runs of n floats, dst row r
// at dst[r·dstStride], over a list of shifted windows of src. Planning
// once keeps the register layout out of the per-call path.
type Block struct {
	n, dstStride, srcStride int
	size, span              int // floats of dst the block covers, of src one window reads
	// k is the number of vectors the assembly body holds: 0 when the
	// shape is not held (n < 8, or more than BlockVectors vectors).
	k     int
	slots blockSlots
}

// blockSlots lays out a held Block's vectors, row by row: vector s reads
// the window at byte offset src[s] and holds the block at byte offset
// dst[s]. A row's last vector starts at float n−8, overlapping the one
// before, so both registers hold the same element's identical chain and
// no lane is masked.
type blockSlots struct {
	src, dst [BlockVectors]int
}

// NewBlock plans a rows × n block. rows > 1 needs dstStride ≥ n and
// srcStride ≥ 1, or NewBlock panics; rows or n below 1 plan an empty
// block.
func NewBlock(rows, n, dstStride, srcStride int) Block {
	if rows > 1 && (dstStride < n || srcStride < 1) {
		panic("kern: NewBlock rows overlap")
	}
	if rows < 1 || n < 1 {
		return Block{}
	}
	b := Block{n: n, dstStride: dstStride, srcStride: srcStride,
		size: (rows-1)*dstStride + n, span: (rows-1)*srcStride + n}
	nv := (n + 7) / 8
	k := rows * nv
	if n < 8 || k > BlockVectors {
		return b
	}
	for s := 0; s < k; s++ {
		r, j := s/nv, min(8*(s%nv), n-8)
		b.slots.src[s] = 4 * (r*srcStride + j)
		b.slots.dst[s] = 4 * (r*dstStride + j)
	}
	b.k = k
	return b
}

// Axpy accumulates the block over the list:
//
//	for p := range offs: for r < rows: for j < n:
//	    dst[r·dstStride+j] += vals[p] · src[offs[p]+r·srcStride+j]
//
// Every element receives its terms in list order, each as acc + v·x, so the
// result is bit for bit that of one AxpyRuns(dst, src[offs[p]:], vals[p],
// n, dstStride, srcStride) per entry. The walk covers min(len(vals),
// len(offs)) entries and ends at the first offset whose window does not
// fit in src; nothing happens when dst cannot hold the block.
//
// spkernel's Eq. 4 runs it once per (image, feature) with the feature's
// [ky][kx·c] dW′ block as dst and one window per EO non-zero. The assembly
// body loads a held block into registers once, walks the whole list, and
// stores it once. Other shapes run one AxpyRuns per entry.
func (b *Block) Axpy(dst, src, vals []float32, offs []int32) {
	if uint(b.size) > uint(len(dst)) || uint(b.span) > uint(len(src)) {
		return
	}
	m := min(len(vals), len(offs))
	if hasAVX2 && b.k > 0 {
		axpyBlockAVX2(dst[:b.size], src, vals[:m], offs[:m], &b.slots, b.k, len(src)-b.span)
		return
	}
	axpyBlock(AxpyRuns, dst[:b.size], src, vals[:m], offs[:m], b.n, b.dstStride, b.srcStride, len(src)-b.span)
}

// axpyBlock is Block.Axpy's unheld walk, for a block already cut to its
// size and a list cut to one length: one runs call per entry, which
// re-reads and re-stores the block every time. With runs = axpyRuns it is
// the scalar body. limit is the last offset whose window fits in src.
func axpyBlock(runs func(dst, src []float32, a float32, n, dstStride, srcStride int),
	dst, src, vals []float32, offs []int32, n, dstStride, srcStride, limit int) {
	for len(offs) > 0 && len(vals) > 0 {
		// The second compare restates the first for the prover.
		o := int(offs[0])
		if uint(o) > uint(limit) || uint(o) > uint(len(src)) {
			return
		}
		runs(dst, src[o:], vals[0], n, dstStride, srcStride)
		offs, vals = offs[1:], vals[1:]
	}
}

// Dot8 is the packed-panel micro-kernel: eight dot products of a against
// one k-interleaved panel, s_c = Σ_k a[k]·bp[8k+c] over
// k < min(len(a), len(bp)/8), each summed in increasing k.
func Dot8(a, bp []float32) (s0, s1, s2, s3, s4, s5, s6, s7 float32) {
	if hasAVX2 {
		return dot8AVX2(a, bp)
	}
	return dot8(a, bp)
}

// Dot8x4 is the register-blocked Dot8: four rows against one panel,
// s[r] = Dot8(ar[:K], bp) with one K = min(len(a0), len(a1), len(a2),
// len(a3), len(bp)/8). Each panel load feeds four independent accumulator
// chains, so the assembly body overlaps four adds where Dot8's single
// chain waits out each add's latency. Callers block their rows by four and
// run the rest through Dot8.
func Dot8x4(s *[4][8]float32, a0, a1, a2, a3, bp []float32) {
	if hasAVX2 {
		dot8x4AVX2(s, a0, a1, a2, a3, bp)
		return
	}
	dot8x4(s, a0, a1, a2, a3, bp)
}

// dot8x4 is Dot8x4's scalar body: four dot8 calls, since 32 scalar
// accumulators would spill.
func dot8x4(s *[4][8]float32, a0, a1, a2, a3, bp []float32) {
	k := min(len(a0), len(a1), len(a2), len(a3), len(bp)/8)
	r := &s[0]
	r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = dot8(a0[:k], bp)
	r = &s[1]
	r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = dot8(a1[:k], bp)
	r = &s[2]
	r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = dot8(a2[:k], bp)
	r = &s[3]
	r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = dot8(a3[:k], bp)
}

// Dot8x4Seg is Dot8x4 carried across segments of one reduction into a
// 4×8 block of dst, row r at dst[r·stride:][:8]. With K as in Dot8x4, the
// first K/seg·seg rows of the operands split into segments of seg rows,
// and for each segment j in turn:
//
//	dst[r·stride+c] += Σ_{k<seg} ar[j·seg+k]·bp[8(j·seg+k)+c]
//
// A trailing partial segment is skipped, and nothing happens when seg < 1,
// stride < 8 or dst cannot hold the block. Each segment's dot starts at
// zero and sums in increasing k, and is then added to the block, so the
// call is bit for bit a Dot8x4 per segment followed by a block += its
// result. unfoldgemm's BP-dW runs one segment per image of a sub-batch —
// dW += EO_i·U_i, images in order — and the assembly body keeps the block
// in registers across them: one load and one store per call instead of
// one per image.
func Dot8x4Seg(dst []float32, stride int, a0, a1, a2, a3, bp []float32, seg int) {
	if seg < 1 || stride < 8 || stride > len(dst) {
		return
	}
	n := 3*stride + 8 // the block's extent; stride ≤ len(dst) keeps it from overflowing
	if uint(n) > uint(len(dst)) {
		return
	}
	dst = dst[:n]
	if hasAVX2 {
		dot8x4SegAVX2(dst, stride, a0, a1, a2, a3, bp, seg)
		return
	}
	dot8x4Seg(dst, stride, a0, a1, a2, a3, bp, seg)
}

// dot8x4Seg is Dot8x4Seg's scalar body, for a dst already cut to the
// block: one dot8x4 and one block add per segment.
func dot8x4Seg(dst []float32, stride int, a0, a1, a2, a3, bp []float32, seg int) {
	if seg < 1 || seg > len(bp)/8 {
		return
	}
	n := 8 * seg // one segment of the panel
	var d [4][8]float32
	for len(a0) >= seg && len(a1) >= seg && len(a2) >= seg && len(a3) >= seg && uint(n) <= uint(len(bp)) {
		dot8x4(&d, a0[:seg], a1[:seg], a2[:seg], a3[:seg], bp)
		b := dst
		for r := range d {
			if len(b) < 8 {
				return
			}
			row, dr := b[:8], &d[r]
			for c := range dr {
				row[c] += dr[c]
			}
			if r == 3 || uint(stride) > uint(len(b)) {
				break
			}
			b = b[stride:]
		}
		a0, a1, a2, a3, bp = a0[seg:], a1[seg:], a2[seg:], a3[seg:], bp[n:]
	}
}

// dot8 is Dot8's scalar body. Exactly two slices advance per iteration —
// the single-stream property the panel layout exists to provide — feeding
// eight accumulator chains that stay in registers across the whole
// reduction, with the k loop unrolled 4x.
func dot8(a, bp []float32) (s0, s1, s2, s3, s4, s5, s6, s7 float32) {
	for len(a) >= 4 && len(bp) >= 32 {
		av := a[0]
		s0 += av * bp[0]
		s1 += av * bp[1]
		s2 += av * bp[2]
		s3 += av * bp[3]
		s4 += av * bp[4]
		s5 += av * bp[5]
		s6 += av * bp[6]
		s7 += av * bp[7]
		av = a[1]
		s0 += av * bp[8]
		s1 += av * bp[9]
		s2 += av * bp[10]
		s3 += av * bp[11]
		s4 += av * bp[12]
		s5 += av * bp[13]
		s6 += av * bp[14]
		s7 += av * bp[15]
		av = a[2]
		s0 += av * bp[16]
		s1 += av * bp[17]
		s2 += av * bp[18]
		s3 += av * bp[19]
		s4 += av * bp[20]
		s5 += av * bp[21]
		s6 += av * bp[22]
		s7 += av * bp[23]
		av = a[3]
		s0 += av * bp[24]
		s1 += av * bp[25]
		s2 += av * bp[26]
		s3 += av * bp[27]
		s4 += av * bp[28]
		s5 += av * bp[29]
		s6 += av * bp[30]
		s7 += av * bp[31]
		a = a[4:]
		bp = bp[32:]
	}
	for len(a) >= 1 && len(bp) >= 8 {
		av := a[0]
		s0 += av * bp[0]
		s1 += av * bp[1]
		s2 += av * bp[2]
		s3 += av * bp[3]
		s4 += av * bp[4]
		s5 += av * bp[5]
		s6 += av * bp[6]
		s7 += av * bp[7]
		a = a[1:]
		bp = bp[8:]
	}
	return
}

// Gather8 interleaves eight rows into one panel: dst[8k+c] = rc[k] for
// k < len(dst)/8. It writes nothing unless every row holds len(dst)/8
// values. The rows are cut to that one length first so a single counter
// indexes all eight without bounds checks or eight advancing slice headers.
func Gather8(dst, r0, r1, r2, r3, r4, r5, r6, r7 []float32) {
	n := len(dst) / 8
	if len(r0) < n || len(r1) < n || len(r2) < n || len(r3) < n ||
		len(r4) < n || len(r5) < n || len(r6) < n || len(r7) < n {
		return
	}
	r0, r1, r2, r3, r4, r5, r6, r7 = r0[:n], r1[:n], r2[:n], r3[:n], r4[:n], r5[:n], r6[:n], r7[:n]
	for k, v0 := range r0 {
		if len(dst) < 8 {
			return
		}
		dst[0] = v0
		dst[1] = r1[k]
		dst[2] = r2[k]
		dst[3] = r3[k]
		dst[4] = r4[k]
		dst[5] = r5[k]
		dst[6] = r6[k]
		dst[7] = r7[k]
		dst = dst[8:]
	}
}
