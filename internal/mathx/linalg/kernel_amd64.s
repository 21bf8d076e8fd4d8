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
