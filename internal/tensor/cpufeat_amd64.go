//go:build amd64

package tensor

// useLaneKernels gates all four assembly kernel families: the unfused AVX2
// float64 matmul lanes in kernels64avx_amd64.s, the AVX2+FMA float32 matmul
// lanes in kernels32fma_amd64.s (with their unfused masked tail in
// kernels32tail_amd64.s), the unfused AVX2 float32 σ/tanh and LSTM-cell
// lanes in kernels32act_amd64.s, and the float64 σ/tanh lanes that
// transcribe libm's FMA path (these behind their own start-up probe as
// well) and float64 LSTM-cell lanes in kernels64act_amd64.s. The binary
// targets baseline GOAMD64=v1, so the capability is probed once at startup
// via CPUID/XGETBV rather than assumed; on machines without AVX2+FMA or
// without OS-saved YMM state every kernel runs its pure-Go body. It is a variable, never assigned outside tests, so
// that the both-modes tests can run the pure-Go bodies on an AVX2 host.
var useLaneKernels = x86HasAVX2FMA()

// x86HasAVX2FMA reports whether the CPU supports AVX2 and FMA3 and the OS
// saves YMM state across context switches (XCR0 bits 1–2). Implemented in
// cpufeat_amd64.s.
func x86HasAVX2FMA() bool
