//go:build amd64

#include "textflag.h"

// func x86HasAVX512() bool
//
// AVX-512F requires CPU support (CPUID.7.0:EBX bit 16) and OS support for
// the ZMM/opmask register state (OSXSAVE set, XCR0 bits 1,2,5,6,7).
TEXT ·x86HasAVX512(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<27), CX // OSXSAVE
	JZ   no
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX    // XMM|YMM|opmask|ZMM_hi256|hi16_ZMM
	CMPL AX, $0xE6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<16), BX // AVX512F
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func x86HasFMA() bool
//
// The same test the math package makes for its FMA path
// (useFMA = HasAVX && HasFMA): CPUID.1:ECX FMA (bit 12), AVX (bit 28) and
// OSXSAVE (bit 27), with the OS saving XMM and YMM state (XCR0 bits 1,2).
TEXT ·x86HasFMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $((1<<12)|(1<<27)|(1<<28)), CX
	CMPL CX, $((1<<12)|(1<<27)|(1<<28))
	JNE  noFMA
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noFMA
	MOVB $1, ret+0(FP)
	RET
noFMA:
	MOVB $0, ret+0(FP)
	RET

// func axpyCols(dst, b, s *float64, k, cols, bStride, sStride int)
//
// for t in [0,k): dst[0:cols] += s[t*sStride] * b[t*bStride : +cols]
//
// cols must be a positive multiple of 8. The j-dimension (columns) is what
// gets vectorized; every output element keeps the scalar kernels' exact
// k-ascending mul-then-add sequence, and zero scalars are skipped just like
// the scalar `if mv == 0 { continue }` guard (SHLQ $1 drops the sign bit, so
// -0.0 is skipped too). No FMA anywhere: VMULPD then VADDPD round twice,
// exactly like the Go code.
//
// Columns are consumed in 64-wide panels (8 ZMM accumulators held across the
// whole k loop — the repo's MLPs are 64 units wide, so the common case is a
// single panel), then 32-wide, then 8-wide. Each column belongs to exactly
// one panel, so the panel split never reorders any element's accumulation.
TEXT ·axpyCols(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ s+16(FP), DX
	MOVQ k+24(FP), R8
	MOVQ cols+32(FP), R9
	MOVQ bStride+40(FP), R10
	MOVQ sStride+48(FP), R11
	SHLQ $3, R9  // cols in bytes
	SHLQ $3, R10 // b row stride in bytes
	SHLQ $3, R11 // s stride in bytes
	XORQ R12, R12 // byte offset into the column panel

panel64: // 8 ZMM accumulators = 64 columns per pass
	MOVQ R9, AX
	SUBQ R12, AX
	CMPQ AX, $512
	JLT  panel32
	VMOVUPD (DI)(R12*1), Z0
	VMOVUPD 64(DI)(R12*1), Z1
	VMOVUPD 128(DI)(R12*1), Z2
	VMOVUPD 192(DI)(R12*1), Z3
	VMOVUPD 256(DI)(R12*1), Z20
	VMOVUPD 320(DI)(R12*1), Z21
	VMOVUPD 384(DI)(R12*1), Z22
	VMOVUPD 448(DI)(R12*1), Z23
	LEAQ (SI)(R12*1), BX // &b[panel start]
	MOVQ DX, CX          // &s[0]
	MOVQ R8, R13         // k countdown

k64:
	MOVQ (CX), AX
	SHLQ $1, AX // ±0.0 → ZF set → skip, matching the scalar guard
	JZ   skip64
	VBROADCASTSD (CX), Z4
	VMULPD (BX), Z4, Z5
	VADDPD Z5, Z0, Z0
	VMULPD 64(BX), Z4, Z6
	VADDPD Z6, Z1, Z1
	VMULPD 128(BX), Z4, Z7
	VADDPD Z7, Z2, Z2
	VMULPD 192(BX), Z4, Z8
	VADDPD Z8, Z3, Z3
	VMULPD 256(BX), Z4, Z24
	VADDPD Z24, Z20, Z20
	VMULPD 320(BX), Z4, Z25
	VADDPD Z25, Z21, Z21
	VMULPD 384(BX), Z4, Z26
	VADDPD Z26, Z22, Z22
	VMULPD 448(BX), Z4, Z27
	VADDPD Z27, Z23, Z23

skip64:
	ADDQ R10, BX
	ADDQ R11, CX
	DECQ R13
	JNZ  k64
	VMOVUPD Z0, (DI)(R12*1)
	VMOVUPD Z1, 64(DI)(R12*1)
	VMOVUPD Z2, 128(DI)(R12*1)
	VMOVUPD Z3, 192(DI)(R12*1)
	VMOVUPD Z20, 256(DI)(R12*1)
	VMOVUPD Z21, 320(DI)(R12*1)
	VMOVUPD Z22, 384(DI)(R12*1)
	VMOVUPD Z23, 448(DI)(R12*1)
	ADDQ $512, R12
	JMP  panel64

panel32: // 4 ZMM accumulators = 32 columns per pass
	MOVQ R9, AX
	SUBQ R12, AX
	CMPQ AX, $256
	JLT  panel8
	VMOVUPD (DI)(R12*1), Z0
	VMOVUPD 64(DI)(R12*1), Z1
	VMOVUPD 128(DI)(R12*1), Z2
	VMOVUPD 192(DI)(R12*1), Z3
	LEAQ (SI)(R12*1), BX // &b[panel start]
	MOVQ DX, CX          // &s[0]
	MOVQ R8, R13         // k countdown

k32:
	MOVQ (CX), AX
	SHLQ $1, AX // ±0.0 → ZF set → skip, matching the scalar guard
	JZ   skip32
	VBROADCASTSD (CX), Z4
	VMULPD (BX), Z4, Z5
	VADDPD Z5, Z0, Z0
	VMULPD 64(BX), Z4, Z6
	VADDPD Z6, Z1, Z1
	VMULPD 128(BX), Z4, Z7
	VADDPD Z7, Z2, Z2
	VMULPD 192(BX), Z4, Z8
	VADDPD Z8, Z3, Z3

skip32:
	ADDQ R10, BX
	ADDQ R11, CX
	DECQ R13
	JNZ  k32
	VMOVUPD Z0, (DI)(R12*1)
	VMOVUPD Z1, 64(DI)(R12*1)
	VMOVUPD Z2, 128(DI)(R12*1)
	VMOVUPD Z3, 192(DI)(R12*1)
	ADDQ $256, R12
	JMP  panel32

panel8: // single ZMM = 8 columns per pass
	CMPQ R12, R9
	JGE  done
	VMOVUPD (DI)(R12*1), Z0
	LEAQ (SI)(R12*1), BX
	MOVQ DX, CX
	MOVQ R8, R13

k8:
	MOVQ (CX), AX
	SHLQ $1, AX
	JZ   skip8
	VBROADCASTSD (CX), Z4
	VMULPD (BX), Z4, Z5
	VADDPD Z5, Z0, Z0

skip8:
	ADDQ R10, BX
	ADDQ R11, CX
	DECQ R13
	JNZ  k8
	VMOVUPD Z0, (DI)(R12*1)
	ADDQ $64, R12
	JMP  panel8

done:
	VZEROUPPER
	RET

// func vecAdd(dst, src *float64, n int)
//
// dst[0:n] += src[0:n], n a positive multiple of 8.
TEXT ·vecAdd(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ R12, R12

add32:
	CMPQ CX, $32
	JLT  add8
	VMOVUPD (DI)(R12*1), Z0
	VMOVUPD 64(DI)(R12*1), Z1
	VMOVUPD 128(DI)(R12*1), Z2
	VMOVUPD 192(DI)(R12*1), Z3
	VADDPD (SI)(R12*1), Z0, Z0
	VADDPD 64(SI)(R12*1), Z1, Z1
	VADDPD 128(SI)(R12*1), Z2, Z2
	VADDPD 192(SI)(R12*1), Z3, Z3
	VMOVUPD Z0, (DI)(R12*1)
	VMOVUPD Z1, 64(DI)(R12*1)
	VMOVUPD Z2, 128(DI)(R12*1)
	VMOVUPD Z3, 192(DI)(R12*1)
	ADDQ $256, R12
	SUBQ $32, CX
	JMP  add32

add8:
	TESTQ CX, CX
	JZ    addDone
	VMOVUPD (DI)(R12*1), Z0
	VADDPD (SI)(R12*1), Z0, Z0
	VMOVUPD Z0, (DI)(R12*1)
	ADDQ $64, R12
	SUBQ $8, CX
	JMP  add8

addDone:
	VZEROUPPER
	RET

// func tanhGradCols(dst, grad, y *float64, n int)
//
// dst[0:n] += grad * (1 - y*y), n a positive multiple of 8 — the fused tanh
// backward. Per element the op order is mul(y,y), sub(1,·), mul(grad,·),
// add(dst,·): exactly the historical ApplyInto + MulElemInto + AddInPlace
// sequence, each correctly rounded, so lanes match the scalar loop bitwise.
TEXT ·tanhGradCols(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ $0x3FF0000000000000, AX // 1.0
	VPBROADCASTQ AX, Z9
	XORQ R12, R12

tanh8:
	TESTQ CX, CX
	JZ    tanhDone
	VMOVUPD (DX)(R12*1), Z0    // y
	VMULPD Z0, Z0, Z0          // y*y
	VSUBPD Z0, Z9, Z0          // 1 - y*y
	VMULPD (SI)(R12*1), Z0, Z0 // grad * (1 - y*y)
	VADDPD (DI)(R12*1), Z0, Z0
	VMOVUPD Z0, (DI)(R12*1)
	ADDQ $64, R12
	SUBQ $8, CX
	JMP  tanh8

tanhDone:
	VZEROUPPER
	RET

// func adamCols(p, grad, m, v *float64, n int, beta1, c1, beta2, c2, bc1, bc2, lr, eps float64)
//
// Element-wise Adam, transcribing adamScalar's float op order exactly:
//
//	m' = beta1*m + c1*g          (c1 = 1-beta1)
//	v' = beta2*v + (c2*g)*g      (c2 = 1-beta2)
//	p -= (lr*(m'/bc1)) / (sqrt(v'/bc2) + eps)
//
// The gradient is consumed and cleared in the same pass: its cache lines are
// already resident from the load, and the zero stores hide under the div/sqrt
// latency, so the caller saves a separate full-gradient memset sweep.
//
// mul/add/sub/div/sqrt are all correctly rounded, so lanes == scalar loop.
TEXT ·adamCols(SB), NOSPLIT, $0-104
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSD beta1+40(FP), Z10
	VBROADCASTSD c1+48(FP), Z11
	VBROADCASTSD beta2+56(FP), Z12
	VBROADCASTSD c2+64(FP), Z13
	VBROADCASTSD bc1+72(FP), Z14
	VBROADCASTSD bc2+80(FP), Z15
	VBROADCASTSD lr+88(FP), Z16
	VBROADCASTSD eps+96(FP), Z17
	VXORPD X9, X9, X9       // zero block stored back over the consumed gradient
	XORQ R12, R12

	// Two 8-lane blocks per iteration, instructions interleaved. The div →
	// sqrt → div critical path of one block (~80 cycles) far exceeds the
	// divider unit's occupancy (~60), so a second independent chain keeps
	// the divider busy through the first chain's latency stalls. Lanes stay
	// element-wise independent: order of blocks cannot change results.
adamLoop16:
	CMPQ CX, $16
	JLT  adamLoop
	VMOVUPD (SI)(R12*1), Z0    // g    lo
	VMOVUPD 64(SI)(R12*1), Z18 // g    hi
	VMOVUPD (R8)(R12*1), Z1    // m    lo
	VMOVUPD 64(R8)(R12*1), Z19 // m    hi
	VMOVUPD (R9)(R12*1), Z2    // v    lo
	VMOVUPD 64(R9)(R12*1), Z20 // v    hi
	VMOVUPD (DI)(R12*1), Z3    // p    lo
	VMOVUPD 64(DI)(R12*1), Z21 // p    hi
	VMULPD Z10, Z1, Z1         // beta1*m
	VMULPD Z10, Z19, Z19
	VMULPD Z11, Z0, Z4         // c1*g
	VMULPD Z11, Z18, Z22
	VADDPD Z4, Z1, Z1          // m'
	VADDPD Z22, Z19, Z19
	VMULPD Z12, Z2, Z2         // beta2*v
	VMULPD Z12, Z20, Z20
	VMULPD Z13, Z0, Z5         // c2*g
	VMULPD Z13, Z18, Z23
	VMULPD Z0, Z5, Z5          // (c2*g)*g
	VMULPD Z18, Z23, Z23
	VADDPD Z5, Z2, Z2          // v'
	VADDPD Z23, Z20, Z20
	VMOVUPD Z9, (SI)(R12*1)    // g consumed; clear in place
	VMOVUPD Z9, 64(SI)(R12*1)
	VMOVUPD Z1, (R8)(R12*1)
	VMOVUPD Z19, 64(R8)(R12*1)
	VMOVUPD Z2, (R9)(R12*1)
	VMOVUPD Z20, 64(R9)(R12*1)
	VDIVPD Z14, Z1, Z6         // mhat = m'/bc1
	VDIVPD Z15, Z2, Z7         // vhat = v'/bc2
	VDIVPD Z14, Z19, Z22
	VDIVPD Z15, Z20, Z23
	VSQRTPD Z7, Z7
	VSQRTPD Z23, Z23
	VADDPD Z17, Z7, Z7         // sqrt(vhat)+eps
	VADDPD Z17, Z23, Z23
	VMULPD Z6, Z16, Z6         // lr*mhat
	VMULPD Z22, Z16, Z22
	VDIVPD Z7, Z6, Z6          // step
	VDIVPD Z23, Z22, Z22
	VSUBPD Z6, Z3, Z3          // p - step
	VSUBPD Z22, Z21, Z21
	VMOVUPD Z3, (DI)(R12*1)
	VMOVUPD Z21, 64(DI)(R12*1)
	ADDQ $128, R12
	SUBQ $16, CX
	JMP  adamLoop16

adamLoop:
	TESTQ CX, CX
	JZ    adamDone
	VMOVUPD (SI)(R12*1), Z0 // g
	VMOVUPD (R8)(R12*1), Z1 // m
	VMOVUPD (R9)(R12*1), Z2 // v
	VMOVUPD (DI)(R12*1), Z3 // p
	VMULPD Z10, Z1, Z1      // beta1*m
	VMULPD Z11, Z0, Z4      // c1*g
	VADDPD Z4, Z1, Z1       // m'
	VMULPD Z12, Z2, Z2      // beta2*v
	VMULPD Z13, Z0, Z5      // c2*g
	VMULPD Z0, Z5, Z5       // (c2*g)*g
	VADDPD Z5, Z2, Z2       // v'
	VMOVUPD Z9, (SI)(R12*1) // g consumed; clear in place
	VMOVUPD Z1, (R8)(R12*1)
	VMOVUPD Z2, (R9)(R12*1)
	VDIVPD Z14, Z1, Z6      // mhat = m'/bc1
	VDIVPD Z15, Z2, Z7      // vhat = v'/bc2
	VSQRTPD Z7, Z7
	VADDPD Z17, Z7, Z7      // sqrt(vhat)+eps
	VMULPD Z6, Z16, Z6      // lr*mhat
	VDIVPD Z7, Z6, Z6       // step
	VSUBPD Z6, Z3, Z3       // p - step
	VMOVUPD Z3, (DI)(R12*1)
	ADDQ $64, R12
	SUBQ $8, CX
	JMP  adamLoop

adamDone:
	VZEROUPPER
	RET

// Constants for tanhCols. The exp block is archExp's exprodata table and
// #defines from the Go math package (math/exp_amd64.s), copied literally so
// the assembler parses the same decimals to the same bits. The rational
// polynomial is tanhP/tanhQ from math/tanh.go, given as bit patterns.
DATA tanhdata<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF   // |x| mask
DATA tanhdata<>+8(SB)/8, $0.625                // polynomial / exp band edge
DATA tanhdata<>+16(SB)/8, $0x404601E678FC457B  // 0.5*MAXLOG = 44.0148...
DATA tanhdata<>+24(SB)/8, $1.4426950408889634073599246810018920 // LOG2E
DATA tanhdata<>+32(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA tanhdata<>+40(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA tanhdata<>+48(SB)/8, $0.0625
DATA tanhdata<>+56(SB)/8, $2.4801587301587301587e-5
DATA tanhdata<>+64(SB)/8, $1.9841269841269841270e-4
DATA tanhdata<>+72(SB)/8, $1.3888888888888888889e-3
DATA tanhdata<>+80(SB)/8, $8.3333333333333333333e-3
DATA tanhdata<>+88(SB)/8, $4.1666666666666666667e-2
DATA tanhdata<>+96(SB)/8, $1.6666666666666666667e-1
DATA tanhdata<>+104(SB)/8, $0.5
DATA tanhdata<>+112(SB)/8, $1.0
DATA tanhdata<>+120(SB)/8, $2.0
DATA tanhdata<>+128(SB)/8, $0x3FF               // exponent bias (int64)
DATA tanhdata<>+136(SB)/8, $0xBFEEDC5BAAFD6F4B  // tanhP[0] = -9.64399179425052238628e-1
DATA tanhdata<>+144(SB)/8, $0xC058D26A0E26682D  // tanhP[1] = -9.92877231001918586564e1
DATA tanhdata<>+152(SB)/8, $0xC0993AC030580563  // tanhP[2] = -1.61468768441708447952e3
DATA tanhdata<>+160(SB)/8, $0x405C33F28A581B86  // tanhQ[0] = 1.12811678491632931402e2
DATA tanhdata<>+168(SB)/8, $0x40A176FA0E5535FA  // tanhQ[1] = 2.23548839060100448583e3
DATA tanhdata<>+176(SB)/8, $0x40B2EC102442040C  // tanhQ[2] = 4.84406305325125486048e3
GLOBL tanhdata<>(SB), RODATA, $184

#define TANH_ABS tanhdata<>+0(SB)
#define TANH_EDGE tanhdata<>+8(SB)
#define TANH_SAT tanhdata<>+16(SB)
#define EXP_LOG2E tanhdata<>+24(SB)
#define EXP_LN2U tanhdata<>+32(SB)
#define EXP_LN2L tanhdata<>+40(SB)
#define EXP_SIXTEENTH tanhdata<>+48(SB)
#define EXP_C8 tanhdata<>+56(SB)
#define EXP_C7 tanhdata<>+64(SB)
#define EXP_C6 tanhdata<>+72(SB)
#define EXP_C5 tanhdata<>+80(SB)
#define EXP_C4 tanhdata<>+88(SB)
#define EXP_C3 tanhdata<>+96(SB)
#define EXP_HALF tanhdata<>+104(SB)
#define ONE tanhdata<>+112(SB)
#define TWO tanhdata<>+120(SB)
#define EXP_BIAS tanhdata<>+128(SB)
#define TANH_P0 tanhdata<>+136(SB)
#define TANH_P1 tanhdata<>+144(SB)
#define TANH_P2 tanhdata<>+152(SB)
#define TANH_Q0 tanhdata<>+160(SB)
#define TANH_Q1 tanhdata<>+168(SB)
#define TANH_Q2 tanhdata<>+176(SB)

// func tanhCols(dst, src *float64, n int)
//
// dst[0:n] = math.Tanh(src[0:n]), n a positive multiple of 8, bit for bit.
// Each lane evaluates both branches of math.tanh and blends them:
//
//	|x| < 0.625:               x + x*s*P(s)/Q(s), s = x*x (unfused, as compiled)
//	0.625 ≤ |x| ≤ 0.5*MAXLOG:  ±(1 - 2/(e+1)), e = archExp(2|x|) (FMA path)
//	|x| > 0.5*MAXLOG:          ±1 (and ±Inf)
//	x = ±0:                    x
//
// The exp transcription is the useFMA path of math.archExp op for op:
// round-to-nearest-even k = cvt(t*LOG2E), two fused ln2 reductions, the
// 7-term FMA Taylor chain on t/16, four rounds of squaring via add-2/mul
// (the last one fused with +1), then ×2^k through an int64 exponent add.
// In the exp band 2|x| ∈ [1.25, 88.03], so k+bias never leaves the normal
// range and archExp's overflow, denormal and non-finite branches never fire.
// Lanes outside the band feed the exp chain a zero instead of 2|x|, so a
// subnormal input cannot trigger denormal microcode assists there, and the
// value they compute is blended away. Both branches divide, so numerator and
// denominator are blended first and each lane runs the one VDIVPD its scalar
// branch would.
TEXT ·tanhCols(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ R12, R12

tanhLoop:
	TESTQ CX, CX
	JZ    tanhColsDone
	VMOVUPD (SI)(R12*1), Z0                   // x
	VPANDQ.BCST TANH_ABS, Z0, Z1              // z = |x|
	VCMPPD.BCST $0x1D, TANH_EDGE, Z1, K1      // K1: z >= 0.625 (GE_OQ)
	VCMPPD.BCST $0x1E, TANH_SAT, Z1, K2       // K2: z > 0.5*MAXLOG (GT_OQ)
	VPTESTNMQ Z1, Z1, K3                      // K3: x == ±0
	VPXORQ Z1, Z0, Z8                         // sign bit of x

	// e = archExp(2z)
	VADDPD.Z Z1, Z1, K1, Z2                   // t = 2z (exact); 0 outside the band
	VMULPD.BCST EXP_LOG2E, Z2, Z3
	VCVTPD2DQ Z3, Y3                          // k, MXCSR round-to-nearest-even
	VCVTDQ2PD Y3, Z4                          // float64(k)
	VFNMADD231PD.BCST EXP_LN2U, Z4, Z2        // t -= k*LN2U (fused)
	VFNMADD231PD.BCST EXP_LN2L, Z4, Z2        // t -= k*LN2L (fused)
	VMULPD.BCST EXP_SIXTEENTH, Z2, Z2         // r = t/16
	VBROADCASTSD EXP_C8, Z4
	VFMADD213PD.BCST EXP_C7, Z2, Z4
	VFMADD213PD.BCST EXP_C6, Z2, Z4
	VFMADD213PD.BCST EXP_C5, Z2, Z4
	VFMADD213PD.BCST EXP_C4, Z2, Z4
	VFMADD213PD.BCST EXP_C3, Z2, Z4
	VFMADD213PD.BCST EXP_HALF, Z2, Z4
	VFMADD213PD.BCST ONE, Z2, Z4
	VMULPD Z4, Z2, Z2
	VADDPD.BCST TWO, Z2, Z4
	VMULPD Z4, Z2, Z2
	VADDPD.BCST TWO, Z2, Z4
	VMULPD Z4, Z2, Z2
	VADDPD.BCST TWO, Z2, Z4
	VMULPD Z4, Z2, Z2
	VADDPD.BCST TWO, Z2, Z4
	VFMADD213PD.BCST ONE, Z4, Z2              // r = (r+2)*r + 1
	VPMOVSXDQ Y3, Z3
	VPADDQ.BCST EXP_BIAS, Z3, Z3
	VPSLLQ $52, Z3, Z3                        // 2^k
	VMULPD Z3, Z2, Z2                         // e
	VADDPD.BCST ONE, Z2, Z2                   // e+1

	// x*s*P(s) and Q(s), s = x*x
	VMULPD Z0, Z0, Z5                         // s
	VMULPD.BCST TANH_P0, Z5, Z6
	VADDPD.BCST TANH_P1, Z6, Z6
	VMULPD Z5, Z6, Z6
	VADDPD.BCST TANH_P2, Z6, Z6               // P(s)
	VADDPD.BCST TANH_Q0, Z5, Z7
	VMULPD Z5, Z7, Z7
	VADDPD.BCST TANH_Q1, Z7, Z7
	VMULPD Z5, Z7, Z7
	VADDPD.BCST TANH_Q2, Z7, Z7               // Q(s)
	VMULPD Z5, Z0, Z5                         // x*s
	VMULPD Z6, Z5, Z5                         // x*s*P(s)

	// One division per lane: K1 lanes take 2/(e+1), the rest P/Q.
	VBROADCASTSD TWO, K1, Z5
	VMOVAPD Z2, K1, Z7
	VDIVPD Z7, Z5, Z5                         // q
	VADDPD Z5, Z0, Z6                         // x + q
	VBROADCASTSD ONE, Z7
	VSUBPD Z5, Z7, Z7                         // 1 - q
	VPORQ Z8, Z7, K1, Z6                      // ±(1 - q)
	VPORQ.BCST ONE, Z8, K2, Z6                // ±1
	VMOVAPD Z0, K3, Z6                        // ±0
	VMOVUPD Z6, (DI)(R12*1)
	ADDQ $64, R12
	SUBQ $8, CX
	JMP  tanhLoop

tanhColsDone:
	VZEROUPPER
	RET
