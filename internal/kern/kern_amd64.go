package kern

// hasAVX2 selects the kern_amd64.s bodies: true when the CPU has AVX2 and
// the OS saves YMM state across context switches. It is set once, at
// package initialization.
var hasAVX2 = cpuAVX2()

// cpuAVX2 reports CPUID.(EAX=7,ECX=0):EBX.AVX2 together with OSXSAVE, AVX
// and XGETBV's XMM and YMM state bits.
func cpuAVX2() bool

// The assembly bodies compute exactly what their scalar counterparts in
// kern.go do; the dispatch wrappers there call them only when hasAVX2.

//go:noescape
func axpyAVX2(dst, src []float32, a float32)

//go:noescape
func axpyRunsAVX2(dst, src []float32, a float32, n, dstStride, srcStride int)

//go:noescape
func dot8AVX2(a, bp []float32) (s0, s1, s2, s3, s4, s5, s6, s7 float32)

//go:noescape
func dot8x4AVX2(s *[4][8]float32, a0, a1, a2, a3, bp []float32)

//go:noescape
func dot8x4SegAVX2(dst []float32, stride int, a0, a1, a2, a3, bp []float32, seg int)

//go:noescape
func nonZerosAVX2(idx []int32, x []float32) int

//go:noescape
func axpyBlockAVX2(dst, src, vals []float32, offs []int32, slots *blockSlots, k, limit int)

//go:noescape
func maxPoolAVX2(am []int32, band []float32, base, w, size int)

//go:noescape
func epilogueAVX2(p []float32, b float32, add, relu bool)
