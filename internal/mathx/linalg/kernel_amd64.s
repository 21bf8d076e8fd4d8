#include "textflag.h"

// AVX2 kernels for dot4 and the CholeskyInto column step. Each one performs
// exactly the IEEE operations of the Go loop it stands in for, in the same
// order: lane i of an accumulator register is the partial sum s_i, products
// are rounded (VMULPD) before they are added (VADDPD) — never fused — and the
// reduce is (s0+s1)+(s2+s3). DESIGN.md §9 "Kernel contract" has the rules.
//
// Tail elements belong to s0 only. They are added as the vector [p, 0, 0, 0]:
// VMOVSD from memory and VMULSD zero lanes 1–3, and s_i + (+0) is s_i bit for
// bit because a sum that started at +0 is never -0.

// func dot4AVX2(a, b *float64, n int) float64
TEXT ·dot4AVX2(SB), NOSPLIT, $0-32
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DI
	MOVQ   n+16(FP), DX
	SHLQ   $3, DX            // DX = n*8, end offset
	MOVQ   DX, BX
	ANDQ   $~31, BX          // BX = end offset of the whole quads
	XORQ   CX, CX
	VXORPD Y0, Y0, Y0        // [s0 s1 s2 s3]
	CMPQ   CX, BX
	JEQ    dot_tail

dot_quad:
	VMOVUPD (SI)(CX*1), Y1
	VMULPD  (DI)(CX*1), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $32, CX
	CMPQ    CX, BX
	JNE     dot_quad

dot_tail:
	CMPQ CX, DX
	JEQ  dot_reduce

dot_one:
	VMOVSD (SI)(CX*1), X1
	VMULSD (DI)(CX*1), X1, X1
	VADDPD Y1, Y0, Y0
	ADDQ   $8, CX
	CMPQ   CX, DX
	JNE    dot_one

dot_reduce:
	VEXTRACTF128 $1, Y0, X1     // [s2 s3]
	VHADDPD      X1, X0, X0     // [s0+s1 s2+s3]
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X0, X0     // (s0+s1)+(s2+s3)
	VZEROUPPER
	MOVSD        X0, ret+24(FP)
	RET

// func cholColumnAVX2(l, a *float64, n, j, i, groups int, d float64)
//
// For each of groups consecutive blocks of four rows starting at row i of the
// n×n row-major matrices l and a:
//
//	l[r][j] = (a[r][j] - dot4(l[r][:j], l[j][:j])) / d
//
// The four rows share each load of row j and keep one accumulator apiece, so
// four independent add chains are in flight where a lone dot4 has one.
TEXT ·cholColumnAVX2(SB), NOSPLIT, $0-56
	MOVQ         l+0(FP), SI
	MOVQ         a+8(FP), DI
	MOVQ         n+16(FP), R11
	MOVQ         j+24(FP), R12
	MOVQ         i+32(FP), AX
	MOVQ         groups+40(FP), R13
	VBROADCASTSD d+48(FP), Y9
	SHLQ         $3, R11           // R11 = row stride in bytes
	MOVQ         R12, BX
	IMULQ        R11, BX
	ADDQ         SI, BX            // BX = &l[j][0]
	IMULQ        R11, AX
	ADDQ         AX, SI            // SI = &l[i][0]
	ADDQ         AX, DI
	LEAQ         (DI)(R12*8), DI   // DI = &a[i][j]
	SHLQ         $3, R12           // R12 = j*8, end offset of a row's prefix
	MOVQ         R12, DX
	ANDQ         $~31, DX          // DX = end offset of the whole quads
	LEAQ         (R11)(R11*2), AX  // AX = 3 strides

col_group:
	LEAQ   (SI)(R11*1), R8
	LEAQ   (SI)(R11*2), R9
	LEAQ   (SI)(AX*1), R10
	XORQ   CX, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	CMPQ   CX, DX
	JEQ    col_tail

col_quad:
	VMOVUPD (BX)(CX*1), Y4
	VMULPD  (SI)(CX*1), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  (R8)(CX*1), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  (R9)(CX*1), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  (R10)(CX*1), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    $32, CX
	CMPQ    CX, DX
	JNE     col_quad

col_tail:
	CMPQ CX, R12
	JEQ  col_reduce

col_one:
	VMOVSD (BX)(CX*1), X4
	VMULSD (SI)(CX*1), X4, X5
	VADDPD Y5, Y0, Y0
	VMULSD (R8)(CX*1), X4, X6
	VADDPD Y6, Y1, Y1
	VMULSD (R9)(CX*1), X4, X7
	VADDPD Y7, Y2, Y2
	VMULSD (R10)(CX*1), X4, X8
	VADDPD Y8, Y3, Y3
	ADDQ   $8, CX
	CMPQ   CX, R12
	JNE    col_one

col_reduce:
	// With rows p, q, r, t in Y0..Y3, lane k of Y4 ends as (s0+s1)+(s2+s3)
	// of the k'th row.
	VHADDPD      Y1, Y0, Y0             // [p0+p1 q0+q1 p2+p3 q2+q3]
	VHADDPD      Y3, Y2, Y2             // [r0+r1 t0+t1 r2+r3 t2+t3]
	VPERM2F128   $0x20, Y2, Y0, Y4      // [p0+p1 q0+q1 r0+r1 t0+t1]
	VPERM2F128   $0x31, Y2, Y0, Y5      // [p2+p3 q2+q3 r2+r3 t2+t3]
	VADDPD       Y5, Y4, Y4
	VMOVSD       (DI), X6
	VMOVHPD      (DI)(R11*1), X6, X6
	VMOVSD       (DI)(R11*2), X7
	VMOVHPD      (DI)(AX*1), X7, X7
	VINSERTF128  $1, X7, Y6, Y6         // a[r][j] of the four rows
	VSUBPD       Y4, Y6, Y6
	VDIVPD       Y9, Y6, Y6
	VEXTRACTF128 $1, Y6, X7
	VMOVLPD      X6, (SI)(R12*1)
	VMOVHPD      X6, (R8)(R12*1)
	VMOVLPD      X7, (R9)(R12*1)
	VMOVHPD      X7, (R10)(R12*1)
	LEAQ         (SI)(R11*4), SI
	LEAQ         (DI)(R11*4), DI
	DECQ         R13
	JNZ          col_group
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The exp kernel: expAVX2 runs four lanes of the FMA path of math.Exp
// ($GOROOT/src/math/exp_amd64.s, label avxfma) — the method of N. Shibata,
// "Efficient evaluation methods of elementary functions suitable for SIMD
// computation", ISC 2010, with the constants of its SLEEF implementation.
// Each lane performs that path's instructions in its order, so it returns
// math.Exp's bits wherever math.Exp takes the path (kernel_amd64.go's probe
// decides that). On |x| ≤ 708 the scaled exponent k+1023 lies in [2, 2044],
// so neither the denormal nor the overflow branch of the scalar ldexp is
// taken; a quad with a lane outside that range, or a NaN lane, ends the call.
// Only VEX-encoded instructions run in the loop: a legacy-SSE one there
// costs a state transition per quad.

#define EXP_CONST(off, val) \
	DATA expconst<>+(off)(SB)/8, val; \
	DATA expconst<>+(off+8)(SB)/8, val; \
	DATA expconst<>+(off+16)(SB)/8, val; \
	DATA expconst<>+(off+24)(SB)/8, val

EXP_CONST(0, $0x7FFFFFFFFFFFFFFF)                              // |x| mask
EXP_CONST(32, $708.0)                                          // kernel range
EXP_CONST(64, $1.4426950408889634073599246810018920)           // LOG2E
EXP_CONST(96, $0.69314718055966295651160180568695068359375)    // LN2U
EXP_CONST(128, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
EXP_CONST(160, $0.0625)
EXP_CONST(192, $2.4801587301587301587e-5)
EXP_CONST(224, $1.9841269841269841270e-4)
EXP_CONST(256, $1.3888888888888888889e-3)
EXP_CONST(288, $8.3333333333333333333e-3)
EXP_CONST(320, $4.1666666666666666667e-2)
EXP_CONST(352, $1.6666666666666666667e-1)
EXP_CONST(384, $0.5)
EXP_CONST(416, $1.0)
EXP_CONST(448, $2.0)
EXP_CONST(480, $0x3FF)                                         // exponent bias
GLOBL expconst<>(SB), RODATA|NOPTR, $512

// func expAVX2(dst, src *float64, n int) int
//
// Sets dst[i] = math.Exp(src[i]) for the whole quads of n elements, stopping
// before the first quad with a lane outside [-708, 708] or a NaN lane; it
// returns the number of elements done. dst may be src.
TEXT ·expAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), DX
	SHLQ         $3, DX
	ANDQ         $~31, DX              // DX = end offset of the whole quads
	XORQ         CX, CX
	VMOVUPD      expconst<>+0(SB), Y12 // |x| mask
	VMOVUPD      expconst<>+32(SB), Y13 // 708
	VMOVUPD      expconst<>+448(SB), Y14 // 2.0
	VMOVUPD      expconst<>+480(SB), Y15 // bias
	CMPQ         CX, DX
	JEQ          exp_done

exp_quad:
	VMOVUPD      (SI)(CX*1), Y0         // x
	VANDPD       Y12, Y0, Y1
	VCMPPD       $0x12, Y13, Y1, Y1     // |x| <= 708, ordered: false on NaN
	VMOVMSKPD    Y1, AX
	CMPL         AX, $15
	JNE          exp_done
	VMULPD       expconst<>+64(SB), Y0, Y1
	VCVTPD2DQY   Y1, X2                 // k = round(x·LOG2E)
	VCVTDQ2PD    X2, Y1
	VFNMADD231PD expconst<>+96(SB), Y1, Y0  // x -= k·LN2U, fused
	VFNMADD231PD expconst<>+128(SB), Y1, Y0 // x -= k·LN2L, fused
	VMULPD       expconst<>+160(SB), Y0, Y0
	VMOVUPD      expconst<>+192(SB), Y1
	VFMADD213PD  expconst<>+224(SB), Y0, Y1
	VFMADD213PD  expconst<>+256(SB), Y0, Y1
	VFMADD213PD  expconst<>+288(SB), Y0, Y1
	VFMADD213PD  expconst<>+320(SB), Y0, Y1
	VFMADD213PD  expconst<>+352(SB), Y0, Y1
	VFMADD213PD  expconst<>+384(SB), Y0, Y1
	VFMADD213PD  expconst<>+416(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       Y14, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       Y14, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       Y14, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       Y14, Y0, Y1
	VFMADD213PD  expconst<>+416(SB), Y1, Y0
	VPMOVSXDQ    X2, Y3                 // ldexp: 2^k from (k+1023)<<52
	VPADDQ       Y15, Y3, Y3
	VPSLLQ       $52, Y3, Y3
	VMULPD       Y3, Y0, Y0
	VMOVUPD      Y0, (DI)(CX*1)
	ADDQ         $32, CX
	CMPQ         CX, DX
	JNE          exp_quad

exp_done:
	VZEROUPPER
	SHRQ         $3, CX
	MOVQ         CX, ret+24(FP)
	RET

// func solveLower4AVX2(acc *[16]float64, l *float64, stride int, x *float64, n int)
//
// The shared prefix of four rows of a forward substitution: for the rows at
// l, l+stride, l+2·stride and l+3·stride (stride in elements), acc[4r+q] is
// lane q of dot4's accumulator for row r over its first n elements against
// x[:n], n a multiple of 4. Like cholColumnAVX2, the rows share each load of
// x and keep one accumulator register apiece; the caller adds each row's
// tail to lane 0 and reduces.
TEXT ·solveLower4AVX2(SB), NOSPLIT, $0-40
	MOVQ   acc+0(FP), DI
	MOVQ   l+8(FP), SI
	MOVQ   stride+16(FP), R11
	MOVQ   x+24(FP), BX
	MOVQ   n+32(FP), DX
	SHLQ   $3, R11           // R11 = row stride in bytes
	SHLQ   $3, DX            // DX = n*8, end offset of the prefix
	LEAQ   (SI)(R11*1), R8
	LEAQ   (SI)(R11*2), R9
	LEAQ   (R8)(R11*2), R10
	XORQ   CX, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	CMPQ   CX, DX
	JEQ    sl_store

sl_quad:
	VMOVUPD (BX)(CX*1), Y4
	VMULPD  (SI)(CX*1), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  (R8)(CX*1), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  (R9)(CX*1), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  (R10)(CX*1), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    $32, CX
	CMPQ    CX, DX
	JNE     sl_quad

sl_store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func sqDistsColsAVX2(dst, cols *float64, stride, n int, p *float64, d int)
//
// dst[i] = Σ_k (cols[k·stride+i] − p[k])² for i < n, n a multiple of 4: one
// row per lane, 16 rows per pass (four quads), then a quad per pass. Each
// lane starts at +0 and adds (c−p)·(c−p) for k = 0 … d−1 — the one-row
// loop's operations in its order.
TEXT ·sqDistsColsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ cols+8(FP), SI
	MOVQ stride+16(FP), R11
	MOVQ n+24(FP), DX
	MOVQ p+32(FP), BX
	MOVQ d+40(FP), R12
	SHLQ $3, R11           // R11 = column stride in bytes
	SHLQ $3, DX            // DX = n*8, end offset of the rows
	LEAQ (BX)(R12*8), R12  // R12 = &p[d]
	XORQ CX, CX            // CX = offset of the pass's first row

sd_pass16:
	MOVQ   DX, AX
	SUBQ   CX, AX
	CMPQ   AX, $128
	JLT    sd_pass4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ   (SI)(CX*1), R8  // R8 = &cols[k·stride+i], k = 0
	MOVQ   BX, R9          // R9 = &p[k]
	CMPQ   R9, R12
	JEQ    sd_store16

sd_k16:
	VBROADCASTSD (R9), Y4
	VMOVUPD      (R8), Y5
	VSUBPD       Y4, Y5, Y5
	VMULPD       Y5, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VMOVUPD      32(R8), Y6
	VSUBPD       Y4, Y6, Y6
	VMULPD       Y6, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VMOVUPD      64(R8), Y7
	VSUBPD       Y4, Y7, Y7
	VMULPD       Y7, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VMOVUPD      96(R8), Y8
	VSUBPD       Y4, Y8, Y8
	VMULPD       Y8, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         R11, R8
	ADDQ         $8, R9
	CMPQ         R9, R12
	JNE          sd_k16

sd_store16:
	VMOVUPD Y0, (DI)(CX*1)
	VMOVUPD Y1, 32(DI)(CX*1)
	VMOVUPD Y2, 64(DI)(CX*1)
	VMOVUPD Y3, 96(DI)(CX*1)
	ADDQ    $128, CX
	JMP     sd_pass16

sd_pass4:
	CMPQ   CX, DX
	JEQ    sd_done
	VXORPD Y0, Y0, Y0
	LEAQ   (SI)(CX*1), R8
	MOVQ   BX, R9
	CMPQ   R9, R12
	JEQ    sd_store4

sd_k4:
	VBROADCASTSD (R9), Y4
	VMOVUPD      (R8), Y5
	VSUBPD       Y4, Y5, Y5
	VMULPD       Y5, Y5, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         R11, R8
	ADDQ         $8, R9
	CMPQ         R9, R12
	JNE          sd_k4

sd_store4:
	VMOVUPD Y0, (DI)(CX*1)
	ADDQ    $32, CX
	JMP     sd_pass4

sd_done:
	VZEROUPPER
	RET

// The Matérn 5/2 passes of gp's kernel row, four lanes at a time. Constants
// come in by VBROADCASTSD, from memory or the argument frame: only
// VEX-encoded instructions run, as in the exp kernel.
DATA maternconst<>+0(SB)/8, $0x8000000000000000 // sign bit, for −x
DATA maternconst<>+8(SB)/8, $1.0
DATA maternconst<>+16(SB)/8, $5.0
DATA maternconst<>+24(SB)/8, $3.0
GLOBL maternconst<>(SB), RODATA|NOPTR, $32

// func maternArgAVX2(r, arg *float64, n int, l, sqrt5 float64)
//
// For the whole quads of n: r[i] = √r[i] / l, then arg[i] = −(sqrt5·r[i]).
TEXT ·maternArgAVX2(SB), NOSPLIT, $0-40
	MOVQ         r+0(FP), DI
	MOVQ         arg+8(FP), SI
	MOVQ         n+16(FP), DX
	VBROADCASTSD l+24(FP), Y12
	VBROADCASTSD sqrt5+32(FP), Y13
	VBROADCASTSD maternconst<>+0(SB), Y14
	SHLQ         $3, DX
	ANDQ         $~31, DX
	XORQ         CX, CX
	CMPQ         CX, DX
	JEQ          ma_done

ma_quad:
	VSQRTPD (DI)(CX*1), Y0
	VDIVPD  Y12, Y0, Y0
	VMOVUPD Y0, (DI)(CX*1)
	VMULPD  Y13, Y0, Y1
	VXORPD  Y14, Y1, Y1
	VMOVUPD Y1, (SI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, DX
	JNE     ma_quad

ma_done:
	VZEROUPPER
	RET

// func maternScaleAVX2(k, e *float64, n int, sv, sqrt5 float64)
//
// For the whole quads of n, with r = k[i]:
// k[i] = sv·(((1 + sqrt5·r) + ((5·r)·r)/3)·e[i]).
TEXT ·maternScaleAVX2(SB), NOSPLIT, $0-40
	MOVQ         k+0(FP), DI
	MOVQ         e+8(FP), SI
	MOVQ         n+16(FP), DX
	VBROADCASTSD sv+24(FP), Y12
	VBROADCASTSD sqrt5+32(FP), Y13
	VBROADCASTSD maternconst<>+8(SB), Y14  // 1
	VBROADCASTSD maternconst<>+16(SB), Y15 // 5
	VBROADCASTSD maternconst<>+24(SB), Y11 // 3
	SHLQ         $3, DX
	ANDQ         $~31, DX
	XORQ         CX, CX
	CMPQ         CX, DX
	JEQ          ms_done

ms_quad:
	VMOVUPD (DI)(CX*1), Y0  // r
	VMULPD  Y13, Y0, Y1     // s5 = sqrt5·r
	VADDPD  Y14, Y1, Y1     // 1 + s5
	VMULPD  Y15, Y0, Y2     // 5·r
	VMULPD  Y0, Y2, Y2      // (5·r)·r
	VDIVPD  Y11, Y2, Y2     // /3
	VADDPD  Y2, Y1, Y1
	VMULPD  (SI)(CX*1), Y1, Y1
	VMULPD  Y12, Y1, Y1
	VMOVUPD Y1, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, DX
	JNE     ms_quad

ms_done:
	VZEROUPPER
	RET

// The lane kernels: CholeskyLanes and SolveLowerLanes on four interleaved
// systems (lanes.go has the layout). Lane c of every register is system c,
// so each of dot4's partial sums s0…s3 is one register whose lanes are the
// four systems' sums, a tail product is added to s0 as a whole vector, and
// the reduce (s0+s1)+(s2+s3) is two vertical adds and a third: no shuffles
// and no horizontal adds, and every lane sees exactly its Go loop's
// operations.

// func choleskyLanesAVX2(l, a *float64, n int) int
//
// For each column j and each row i ≥ j, with s = dot4(l[i][:j], l[j][:j])
// per lane: l[j][j] = √(a[j][j] − s), the lane's bit set in the result when
// !(a[j][j] − s > 0), then l[i][j] = (a[i][j] − s) / l[j][j]; row j's
// strict upper part is zeroed. l may be a. The rows below the diagonal go
// three to a pass, sharing each load of row j, with one set of four
// accumulators apiece; the last rows of a column, and the diagonal, go one
// at a time. n is read from the argument frame where needed.
TEXT ·choleskyLanesAVX2(SB), NOSPLIT, $0-32
	MOVQ   l+0(FP), BX       // BX = &l[j][0]
	MOVQ   a+8(FP), DI       // DI = &a[j][j]
	MOVQ   n+16(FP), R12
	SHLQ   $5, R12           // R12 = row stride in bytes (n quads)
	XORQ   R13, R13          // R13 = j
	VXORPD Y15, Y15, Y15     // failed lanes, as compare masks

cl_col:
	MOVQ R13, DX
	SHLQ $5, DX              // DX = byte offset of column j in a row
	MOVQ DX, R9
	ANDQ $~127, R9           // R9 = where the tail of a row's l[i][:j] begins
	MOVQ BX, R8              // R8 = &l[i][0], i = j
	MOVQ DI, R10             // R10 = &a[i][j]
	MOVQ R13, AX             // AX = i

cl_row:
	XORQ   CX, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	CMPQ   CX, R9
	JEQ    cl_tail

cl_quad:
	VMOVUPD (BX)(CX*1), Y4
	VMULPD  (R8)(CX*1), Y4, Y4
	VADDPD  Y4, Y0, Y0
	VMOVUPD 32(BX)(CX*1), Y5
	VMULPD  32(R8)(CX*1), Y5, Y5
	VADDPD  Y5, Y1, Y1
	VMOVUPD 64(BX)(CX*1), Y6
	VMULPD  64(R8)(CX*1), Y6, Y6
	VADDPD  Y6, Y2, Y2
	VMOVUPD 96(BX)(CX*1), Y7
	VMULPD  96(R8)(CX*1), Y7, Y7
	VADDPD  Y7, Y3, Y3
	ADDQ    $128, CX
	CMPQ    CX, R9
	JNE     cl_quad

cl_tail:
	CMPQ CX, DX
	JEQ  cl_reduce

cl_one:
	VMOVUPD (BX)(CX*1), Y4
	VMULPD  (R8)(CX*1), Y4, Y4
	VADDPD  Y4, Y0, Y0
	ADDQ    $32, CX
	CMPQ    CX, DX
	JNE     cl_one

cl_reduce:
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VADDPD  Y2, Y0, Y0       // (s0+s1)+(s2+s3)
	VMOVUPD (R10), Y4
	VSUBPD  Y0, Y4, Y4       // a[i][j] − s
	CMPQ    AX, R13
	JNE     cl_last
	VXORPD  Y6, Y6, Y6       // +0
	VCMPPD  $0x1A, Y6, Y4, Y5 // !(d > 0), true on NaN
	VORPD   Y5, Y15, Y15
	VSQRTPD Y4, Y8           // Y8 = l[j][j], the column's divisor
	VMOVUPD Y8, (R8)(DX*1)
	LEAQ    32(DX), CX

cl_zero:
	CMPQ    CX, R12
	JEQ     cl_below
	VMOVUPD Y6, (R8)(CX*1)
	ADDQ    $32, CX
	JMP     cl_zero

cl_last:
	VDIVPD  Y8, Y4, Y4
	VMOVUPD Y4, (R8)(DX*1)
	ADDQ    R12, R8
	ADDQ    R12, R10
	INCQ    AX
	JMP     cl_triples

cl_below:
	ADDQ R12, R8
	ADDQ R12, R10
	INCQ AX

cl_triples:
	MOVQ n+16(FP), CX
	SUBQ AX, CX              // CX = rows left in the column
	CMPQ CX, $3
	JLT  cl_few
	LEAQ (R8)(R12*1), SI     // SI = &l[i+1][0]
	LEAQ (R8)(R12*2), R11    // R11 = &l[i+2][0]
	XORQ   CX, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	CMPQ   CX, R9
	JEQ    cl_ttail

cl_tquad:
	VMOVUPD (BX)(CX*1), Y9
	VMULPD  (R8)(CX*1), Y9, Y14
	VADDPD  Y14, Y0, Y0
	VMULPD  (SI)(CX*1), Y9, Y14
	VADDPD  Y14, Y4, Y4
	VMULPD  (R11)(CX*1), Y9, Y14
	VADDPD  Y14, Y10, Y10
	VMOVUPD 32(BX)(CX*1), Y9
	VMULPD  32(R8)(CX*1), Y9, Y14
	VADDPD  Y14, Y1, Y1
	VMULPD  32(SI)(CX*1), Y9, Y14
	VADDPD  Y14, Y5, Y5
	VMULPD  32(R11)(CX*1), Y9, Y14
	VADDPD  Y14, Y11, Y11
	VMOVUPD 64(BX)(CX*1), Y9
	VMULPD  64(R8)(CX*1), Y9, Y14
	VADDPD  Y14, Y2, Y2
	VMULPD  64(SI)(CX*1), Y9, Y14
	VADDPD  Y14, Y6, Y6
	VMULPD  64(R11)(CX*1), Y9, Y14
	VADDPD  Y14, Y12, Y12
	VMOVUPD 96(BX)(CX*1), Y9
	VMULPD  96(R8)(CX*1), Y9, Y14
	VADDPD  Y14, Y3, Y3
	VMULPD  96(SI)(CX*1), Y9, Y14
	VADDPD  Y14, Y7, Y7
	VMULPD  96(R11)(CX*1), Y9, Y14
	VADDPD  Y14, Y13, Y13
	ADDQ    $128, CX
	CMPQ    CX, R9
	JNE     cl_tquad

cl_ttail:
	CMPQ CX, DX
	JEQ  cl_treduce

cl_tone:
	VMOVUPD (BX)(CX*1), Y9
	VMULPD  (R8)(CX*1), Y9, Y14
	VADDPD  Y14, Y0, Y0
	VMULPD  (SI)(CX*1), Y9, Y14
	VADDPD  Y14, Y4, Y4
	VMULPD  (R11)(CX*1), Y9, Y14
	VADDPD  Y14, Y10, Y10
	ADDQ    $32, CX
	CMPQ    CX, DX
	JNE     cl_tone

cl_treduce:
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VADDPD  Y5, Y4, Y4
	VADDPD  Y7, Y6, Y6
	VADDPD  Y6, Y4, Y4
	VADDPD  Y11, Y10, Y10
	VADDPD  Y13, Y12, Y12
	VADDPD  Y12, Y10, Y10
	VMOVUPD (R10), Y1
	VSUBPD  Y0, Y1, Y1
	VDIVPD  Y8, Y1, Y1
	VMOVUPD Y1, (R8)(DX*1)
	VMOVUPD (R10)(R12*1), Y5
	VSUBPD  Y4, Y5, Y5
	VDIVPD  Y8, Y5, Y5
	VMOVUPD Y5, (SI)(DX*1)
	VMOVUPD (R10)(R12*2), Y11
	VSUBPD  Y10, Y11, Y11
	VDIVPD  Y8, Y11, Y11
	VMOVUPD Y11, (R11)(DX*1)
	LEAQ    (R11)(R12*1), R8
	LEAQ    (R10)(R12*2), R10
	ADDQ    R12, R10
	ADDQ    $3, AX
	JMP     cl_triples

cl_few:
	CMPQ CX, $0
	JNE  cl_row
	ADDQ R12, BX
	LEAQ 32(DI)(R12*1), DI
	INCQ R13
	CMPQ R13, n+16(FP)
	JNE  cl_col
	VMOVMSKPD Y15, AX
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func solveLowerLanesAVX2(dst, l, b *float64, n int)
//
// For each row i: y[i] = (b[i] − dot4(l[i][:i], y[:i])) / l[i][i] per lane,
// y being dst. dst may be b.
TEXT ·solveLowerLanesAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ l+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), R11
	MOVQ R11, R12
	SHLQ $5, R12             // R12 = row stride in bytes
	XORQ DX, DX              // DX = byte offset of entry i, in a row and in y

sl4_row:
	MOVQ   DX, R9
	ANDQ   $~127, R9
	XORQ   CX, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	CMPQ   CX, R9
	JEQ    sl4_tail

sl4_quad:
	VMOVUPD (DI)(CX*1), Y4
	VMULPD  (SI)(CX*1), Y4, Y4
	VADDPD  Y4, Y0, Y0
	VMOVUPD 32(DI)(CX*1), Y5
	VMULPD  32(SI)(CX*1), Y5, Y5
	VADDPD  Y5, Y1, Y1
	VMOVUPD 64(DI)(CX*1), Y6
	VMULPD  64(SI)(CX*1), Y6, Y6
	VADDPD  Y6, Y2, Y2
	VMOVUPD 96(DI)(CX*1), Y7
	VMULPD  96(SI)(CX*1), Y7, Y7
	VADDPD  Y7, Y3, Y3
	ADDQ    $128, CX
	CMPQ    CX, R9
	JNE     sl4_quad

sl4_tail:
	CMPQ CX, DX
	JEQ  sl4_reduce

sl4_one:
	VMOVUPD (DI)(CX*1), Y4
	VMULPD  (SI)(CX*1), Y4, Y4
	VADDPD  Y4, Y0, Y0
	ADDQ    $32, CX
	CMPQ    CX, DX
	JNE     sl4_one

sl4_reduce:
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD (BX)(DX*1), Y4
	VSUBPD  Y0, Y4, Y4
	VDIVPD  (SI)(DX*1), Y4, Y4
	VMOVUPD Y4, (DI)(DX*1)
	ADDQ    R12, SI
	ADDQ    $32, DX
	CMPQ    DX, R12
	JNE     sl4_row
	VZEROUPPER
	RET

// func scaleLanesAVX2(dst, src *float64, n int, s *[4]float64)
//
// dst[4t+c] = src[t]·s[c] for t < n: one broadcast and one multiply per
// element of src.
TEXT ·scaleLanesAVX2(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), DX
	MOVQ    s+24(FP), AX
	VMOVUPD (AX), Y1
	LEAQ    (SI)(DX*8), DX   // DX = &src[n]

sc_one:
	VBROADCASTSD (SI), Y0
	VMULPD       Y1, Y0, Y0
	VMOVUPD      Y0, (DI)
	ADDQ         $8, SI
	ADDQ         $32, DI
	CMPQ         SI, DX
	JNE          sc_one
	VZEROUPPER
	RET
