//go:build !noasm

#include "textflag.h"

// func gemmKernel8x8AVX2(c []float32, ldc int, aP, bP []float32, kc int)
//
// 8×8 float32 micro-kernel, AVX2+FMA. The C tile lives in Y0–Y7 (one
// 8-lane row per register) for the whole kc loop; each step broadcasts
// one A value per row and FMAs it against the packed B row:
//
//	Y8 = bP[p*8 : p*8+8]
//	Yi += broadcast(aP[p*8+i]) * Y8      i = 0..7
TEXT ·gemmKernel8x8AVX2(SB), NOSPLIT, $0-88
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), SI
	MOVQ aP_base+32(FP), DX
	MOVQ bP_base+56(FP), CX
	MOVQ kc+80(FP), BX
	SHLQ $2, SI              // row stride in bytes

	// Load the C tile.
	MOVQ    DI, R8
	VMOVUPS (R8), Y0
	ADDQ    SI, R8
	VMOVUPS (R8), Y1
	ADDQ    SI, R8
	VMOVUPS (R8), Y2
	ADDQ    SI, R8
	VMOVUPS (R8), Y3
	ADDQ    SI, R8
	VMOVUPS (R8), Y4
	ADDQ    SI, R8
	VMOVUPS (R8), Y5
	ADDQ    SI, R8
	VMOVUPS (R8), Y6
	ADDQ    SI, R8
	VMOVUPS (R8), Y7

	TESTQ BX, BX
	JZ    store32

loop32:
	VMOVUPS      (CX), Y8
	VBROADCASTSS (DX), Y9
	VFMADD231PS  Y8, Y9, Y0
	VBROADCASTSS 4(DX), Y10
	VFMADD231PS  Y8, Y10, Y1
	VBROADCASTSS 8(DX), Y11
	VFMADD231PS  Y8, Y11, Y2
	VBROADCASTSS 12(DX), Y12
	VFMADD231PS  Y8, Y12, Y3
	VBROADCASTSS 16(DX), Y9
	VFMADD231PS  Y8, Y9, Y4
	VBROADCASTSS 20(DX), Y10
	VFMADD231PS  Y8, Y10, Y5
	VBROADCASTSS 24(DX), Y11
	VFMADD231PS  Y8, Y11, Y6
	VBROADCASTSS 28(DX), Y12
	VFMADD231PS  Y8, Y12, Y7
	ADDQ         $32, DX
	ADDQ         $32, CX
	DECQ         BX
	JNZ          loop32

store32:
	VMOVUPS Y0, (DI)
	ADDQ    SI, DI
	VMOVUPS Y1, (DI)
	ADDQ    SI, DI
	VMOVUPS Y2, (DI)
	ADDQ    SI, DI
	VMOVUPS Y3, (DI)
	ADDQ    SI, DI
	VMOVUPS Y4, (DI)
	ADDQ    SI, DI
	VMOVUPS Y5, (DI)
	ADDQ    SI, DI
	VMOVUPS Y6, (DI)
	ADDQ    SI, DI
	VMOVUPS Y7, (DI)
	VZEROUPPER
	RET

// func gemmKernel4x4AVX2(c []float64, ldc int, aP, bP []float64, kc int)
//
// 4×4 float64 micro-kernel. Separate VMULPD/VADDPD — NOT fused — so each
// output element accumulates with exactly the scalar loops' rounding:
// this kernel must stay bit-identical to the float64 oracle (pack.go).
TEXT ·gemmKernel4x4AVX2(SB), NOSPLIT, $0-88
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), SI
	MOVQ aP_base+32(FP), DX
	MOVQ bP_base+56(FP), CX
	MOVQ kc+80(FP), BX
	SHLQ $3, SI              // row stride in bytes

	// Load the C tile.
	MOVQ    DI, R8
	VMOVUPD (R8), Y0
	ADDQ    SI, R8
	VMOVUPD (R8), Y1
	ADDQ    SI, R8
	VMOVUPD (R8), Y2
	ADDQ    SI, R8
	VMOVUPD (R8), Y3

	TESTQ BX, BX
	JZ    store64

loop64:
	VMOVUPD      (CX), Y4
	VBROADCASTSD (DX), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD 8(DX), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VBROADCASTSD 16(DX), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VBROADCASTSD 24(DX), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $32, DX
	ADDQ         $32, CX
	DECQ         BX
	JNZ          loop64

store64:
	VMOVUPD Y0, (DI)
	ADDQ    SI, DI
	VMOVUPD Y1, (DI)
	ADDQ    SI, DI
	VMOVUPD Y2, (DI)
	ADDQ    SI, DI
	VMOVUPD Y3, (DI)
	VZEROUPPER
	RET

// func gemvKernel8AVX2(c, a, bP []float32, kc, npan int)
//
// One-row float32 kernel, AVX2+FMA: c[q*8+j] += Σ_p a[p]·bP[(q*kc+p)*8+j]
// over npan 8-column panels. Each step broadcasts a[p] once and FMAs it
// into the panels' accumulators exactly as row 0 of gemmKernel8x8AVX2
// does. A single panel's chain is latency-bound, so eight panels run per
// pass (Y0–Y7, one independent chain per lane each); the panels left
// over run one at a time.
TEXT ·gemvKernel8AVX2(SB), NOSPLIT, $0-88
	MOVQ c_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ bP_base+48(FP), CX
	MOVQ kc+72(FP), BX
	MOVQ npan+80(FP), DX
	TESTQ BX, BX
	JZ    gv32done
	MOVQ BX, R8
	SHLQ $5, R8              // panel stride in bytes: kc·8 lanes·4 B
	LEAQ (R8)(R8*2), R9      // 3 panels

gv32eight:
	CMPQ DX, $8
	JLT  gv32one
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	MOVQ CX, R10             // panels 0–3 at step p
	LEAQ (CX)(R8*4), R11     // panels 4–7
	MOVQ SI, R12
	MOVQ BX, R13

gv32loop8:
	VBROADCASTSS (R12), Y8
	VFMADD231PS  (R10), Y8, Y0
	VFMADD231PS  (R10)(R8*1), Y8, Y1
	VFMADD231PS  (R10)(R8*2), Y8, Y2
	VFMADD231PS  (R10)(R9*1), Y8, Y3
	VFMADD231PS  (R11), Y8, Y4
	VFMADD231PS  (R11)(R8*1), Y8, Y5
	VFMADD231PS  (R11)(R8*2), Y8, Y6
	VFMADD231PS  (R11)(R9*1), Y8, Y7
	ADDQ         $4, R12
	ADDQ         $32, R10
	ADDQ         $32, R11
	DECQ         R13
	JNZ          gv32loop8

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ    $256, DI
	LEAQ    (CX)(R8*8), CX
	SUBQ    $8, DX
	JMP     gv32eight

gv32one:
	TESTQ DX, DX
	JZ    gv32done
	VMOVUPS (DI), Y0
	MOVQ    CX, R10
	MOVQ    SI, R12
	MOVQ    BX, R13

gv32loop1:
	VBROADCASTSS (R12), Y8
	VFMADD231PS  (R10), Y8, Y0
	ADDQ         $4, R12
	ADDQ         $32, R10
	DECQ         R13
	JNZ          gv32loop1

	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    R8, CX
	DECQ    DX
	JMP     gv32one

gv32done:
	VZEROUPPER
	RET

// func gemvKernel4AVX2(c, a, bP []float64, kc, npan int)
//
// One-row float64 kernel over npan 4-column panels, eight per pass like
// gemvKernel8AVX2. Separate VMULPD/VADDPD — NOT fused — as in
// gemmKernel4x4AVX2, so each lane is the scalar loops' ascending-p chain
// and the float64 oracle contract holds.
TEXT ·gemvKernel4AVX2(SB), NOSPLIT, $0-88
	MOVQ c_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ bP_base+48(FP), CX
	MOVQ kc+72(FP), BX
	MOVQ npan+80(FP), DX
	TESTQ BX, BX
	JZ    gv64done
	MOVQ BX, R8
	SHLQ $5, R8              // panel stride in bytes: kc·4 lanes·8 B
	LEAQ (R8)(R8*2), R9      // 3 panels

gv64eight:
	CMPQ DX, $8
	JLT  gv64one
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	MOVQ CX, R10             // panels 0–3 at step p
	LEAQ (CX)(R8*4), R11     // panels 4–7
	MOVQ SI, R12
	MOVQ BX, R13

gv64loop8:
	VBROADCASTSD (R12), Y8
	VMULPD       (R10), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       (R10)(R8*1), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       (R10)(R8*2), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       (R10)(R9*1), Y8, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       (R11), Y8, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       (R11)(R8*1), Y8, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       (R11)(R8*2), Y8, Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       (R11)(R9*1), Y8, Y9
	VADDPD       Y9, Y7, Y7
	ADDQ         $8, R12
	ADDQ         $32, R10
	ADDQ         $32, R11
	DECQ         R13
	JNZ          gv64loop8

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	LEAQ    (CX)(R8*8), CX
	SUBQ    $8, DX
	JMP     gv64eight

gv64one:
	TESTQ DX, DX
	JZ    gv64done
	VMOVUPD (DI), Y0
	MOVQ    CX, R10
	MOVQ    SI, R12
	MOVQ    BX, R13

gv64loop1:
	VBROADCASTSD (R12), Y8
	VMULPD       (R10), Y8, Y9
	VADDPD       Y9, Y0, Y0
	ADDQ         $8, R12
	ADDQ         $32, R10
	DECQ         R13
	JNZ          gv64loop1

	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    R8, CX
	DECQ    DX
	JMP     gv64one

gv64done:
	VZEROUPPER
	RET

// func gemvRows4Kernel8AVX2(c []float32, ldc int, a []float32, lda int, bP []float32, kc, npan int)
//
// Four-row float32 kernel: c[r*ldc+q*8+j] += Σ_p a[r*lda+p]·bP[(q*kc+p)*8+j]
// for r < 4 over npan 8-column panels, A read in place. Two panels run per
// pass: each step loads their B rows once (Y8, Y9) and FMAs them against
// each row's broadcast a value, so a B step feeds eight FMAs instead of
// two. Every accumulator is its row's ascending-p FMA chain, the one
// gemvKernel8AVX2 and gemmKernel8x8AVX2 carry. An odd last panel runs
// alone.
TEXT ·gemvRows4Kernel8AVX2(SB), NOSPLIT, $0-104
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), R8
	MOVQ a_base+32(FP), SI
	MOVQ lda+56(FP), AX
	MOVQ bP_base+64(FP), CX
	MOVQ kc+88(FP), BX
	MOVQ npan+96(FP), DX
	TESTQ BX, BX
	JZ    r4done
	SHLQ $2, R8              // C row stride in bytes
	LEAQ (DI)(R8*2), R14     // C rows 2–3
	SHLQ $2, AX              // A row stride in bytes
	LEAQ (SI)(AX*1), R9      // A row 1
	LEAQ (SI)(AX*2), R11     // A row 2
	LEAQ (R9)(AX*2), R13     // A row 3
	MOVQ BX, R10
	SHLQ $5, R10             // panel stride in bytes: kc·8 lanes·4 B
	SHLQ $2, BX              // kc in A bytes: the step bound

r4two:
	CMPQ DX, $2
	JLT  r4one
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(R8*1), Y2
	VMOVUPS 32(DI)(R8*1), Y3
	VMOVUPS (R14), Y4
	VMOVUPS 32(R14), Y5
	VMOVUPS (R14)(R8*1), Y6
	VMOVUPS 32(R14)(R8*1), Y7
	MOVQ    CX, R12          // panel q at step p; q+1 is R10 further
	XORQ    AX, AX           // step p, in A bytes

r4loop2:
	VMOVUPS      (R12), Y8
	VMOVUPS      (R12)(R10*1), Y9
	VBROADCASTSS (SI)(AX*1), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VBROADCASTSS (R9)(AX*1), Y11
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VBROADCASTSS (R11)(AX*1), Y12
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5
	VBROADCASTSS (R13)(AX*1), Y13
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7
	ADDQ         $32, R12
	ADDQ         $4, AX
	CMPQ         AX, BX
	JLT          r4loop2

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R8*1)
	VMOVUPS Y3, 32(DI)(R8*1)
	VMOVUPS Y4, (R14)
	VMOVUPS Y5, 32(R14)
	VMOVUPS Y6, (R14)(R8*1)
	VMOVUPS Y7, 32(R14)(R8*1)
	ADDQ    $64, DI
	ADDQ    $64, R14
	LEAQ    (CX)(R10*2), CX
	SUBQ    $2, DX
	JMP     r4two

r4one:
	TESTQ DX, DX
	JZ    r4done
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(R8*1), Y2
	VMOVUPS (R14), Y4
	VMOVUPS (R14)(R8*1), Y6
	MOVQ    CX, R12
	XORQ    AX, AX

r4loop1:
	VMOVUPS      (R12), Y8
	VBROADCASTSS (SI)(AX*1), Y10
	VFMADD231PS  Y8, Y10, Y0
	VBROADCASTSS (R9)(AX*1), Y11
	VFMADD231PS  Y8, Y11, Y2
	VBROADCASTSS (R11)(AX*1), Y12
	VFMADD231PS  Y8, Y12, Y4
	VBROADCASTSS (R13)(AX*1), Y13
	VFMADD231PS  Y8, Y13, Y6
	ADDQ         $32, R12
	ADDQ         $4, AX
	CMPQ         AX, BX
	JLT          r4loop1

	VMOVUPS Y0, (DI)
	VMOVUPS Y2, (DI)(R8*1)
	VMOVUPS Y4, (R14)
	VMOVUPS Y6, (R14)(R8*1)

r4done:
	VZEROUPPER
	RET

// func gemvRows2Kernel8AVX2(c []float32, ldc int, a []float32, lda int, bP []float32, kc, npan int)
//
// Two-row float32 kernel, as gemvRows4Kernel8AVX2 for r < 2: four panels
// per pass (Y8–Y11 loaded once per step, eight FMAs), the panels left
// over one at a time.
TEXT ·gemvRows2Kernel8AVX2(SB), NOSPLIT, $0-104
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), R8
	MOVQ a_base+32(FP), SI
	MOVQ lda+56(FP), AX
	MOVQ bP_base+64(FP), CX
	MOVQ kc+88(FP), BX
	MOVQ npan+96(FP), DX
	TESTQ BX, BX
	JZ    r2done
	SHLQ $2, R8              // C row stride in bytes
	SHLQ $2, AX              // A row stride in bytes
	LEAQ (SI)(AX*1), R11     // A row 1
	MOVQ BX, R10
	SHLQ $5, R10             // panel stride in bytes: kc·8 lanes·4 B
	LEAQ (R10)(R10*2), R9    // 3 panels
	SHLQ $2, BX              // kc in A bytes: the step bound

r2four:
	CMPQ DX, $4
	JLT  r2one
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS (DI)(R8*1), Y4
	VMOVUPS 32(DI)(R8*1), Y5
	VMOVUPS 64(DI)(R8*1), Y6
	VMOVUPS 96(DI)(R8*1), Y7
	MOVQ    CX, R12
	XORQ    AX, AX

r2loop4:
	VMOVUPS      (R12), Y8
	VMOVUPS      (R12)(R10*1), Y9
	VMOVUPS      (R12)(R10*2), Y10
	VMOVUPS      (R12)(R9*1), Y11
	VBROADCASTSS (SI)(AX*1), Y12
	VBROADCASTSS (R11)(AX*1), Y13
	VFMADD231PS  Y8, Y12, Y0
	VFMADD231PS  Y9, Y12, Y1
	VFMADD231PS  Y10, Y12, Y2
	VFMADD231PS  Y11, Y12, Y3
	VFMADD231PS  Y8, Y13, Y4
	VFMADD231PS  Y9, Y13, Y5
	VFMADD231PS  Y10, Y13, Y6
	VFMADD231PS  Y11, Y13, Y7
	ADDQ         $32, R12
	ADDQ         $4, AX
	CMPQ         AX, BX
	JLT          r2loop4

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, (DI)(R8*1)
	VMOVUPS Y5, 32(DI)(R8*1)
	VMOVUPS Y6, 64(DI)(R8*1)
	VMOVUPS Y7, 96(DI)(R8*1)
	ADDQ    $128, DI
	LEAQ    (CX)(R10*4), CX
	SUBQ    $4, DX
	JMP     r2four

r2one:
	TESTQ DX, DX
	JZ    r2done
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(R8*1), Y4
	MOVQ    CX, R12
	XORQ    AX, AX

r2loop1:
	VMOVUPS      (R12), Y8
	VBROADCASTSS (SI)(AX*1), Y12
	VFMADD231PS  Y8, Y12, Y0
	VBROADCASTSS (R11)(AX*1), Y13
	VFMADD231PS  Y8, Y13, Y4
	ADDQ         $32, R12
	ADDQ         $4, AX
	CMPQ         AX, BX
	JLT          r2loop1

	VMOVUPS Y0, (DI)
	VMOVUPS Y4, (DI)(R8*1)
	ADDQ    $32, DI
	ADDQ    R10, CX
	DECQ    DX
	JMP     r2one

r2done:
	VZEROUPPER
	RET

// func gemvRows2Kernel4AVX2(c []float64, ldc int, a []float64, lda int, bP []float64, kc, npan int)
//
// Two-row float64 kernel over 4-column panels, four per pass like
// gemvRows2Kernel8AVX2. Separate VMULPD/VADDPD — NOT fused — as in
// gemmKernel4x4AVX2, so each lane is the scalar loops' ascending-p chain.
TEXT ·gemvRows2Kernel4AVX2(SB), NOSPLIT, $0-104
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), R8
	MOVQ a_base+32(FP), SI
	MOVQ lda+56(FP), AX
	MOVQ bP_base+64(FP), CX
	MOVQ kc+88(FP), BX
	MOVQ npan+96(FP), DX
	TESTQ BX, BX
	JZ    r2d_done
	SHLQ $3, R8              // C row stride in bytes
	SHLQ $3, AX              // A row stride in bytes
	LEAQ (SI)(AX*1), R11     // A row 1
	MOVQ BX, R10
	SHLQ $5, R10             // panel stride in bytes: kc·4 lanes·8 B
	LEAQ (R10)(R10*2), R9    // 3 panels
	SHLQ $3, BX              // kc in A bytes: the step bound

r2d_four:
	CMPQ DX, $4
	JLT  r2d_one
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD (DI)(R8*1), Y4
	VMOVUPD 32(DI)(R8*1), Y5
	VMOVUPD 64(DI)(R8*1), Y6
	VMOVUPD 96(DI)(R8*1), Y7
	MOVQ    CX, R12
	XORQ    AX, AX

r2d_loop4:
	VMOVUPD      (R12), Y8
	VMOVUPD      (R12)(R10*1), Y9
	VMOVUPD      (R12)(R10*2), Y10
	VMOVUPD      (R12)(R9*1), Y11
	VBROADCASTSD (SI)(AX*1), Y12
	VBROADCASTSD (R11)(AX*1), Y13
	VMULPD       Y8, Y12, Y14
	VADDPD       Y14, Y0, Y0
	VMULPD       Y9, Y12, Y15
	VADDPD       Y15, Y1, Y1
	VMULPD       Y10, Y12, Y14
	VADDPD       Y14, Y2, Y2
	VMULPD       Y11, Y12, Y15
	VADDPD       Y15, Y3, Y3
	VMULPD       Y8, Y13, Y14
	VADDPD       Y14, Y4, Y4
	VMULPD       Y9, Y13, Y15
	VADDPD       Y15, Y5, Y5
	VMULPD       Y10, Y13, Y14
	VADDPD       Y14, Y6, Y6
	VMULPD       Y11, Y13, Y15
	VADDPD       Y15, Y7, Y7
	ADDQ         $32, R12
	ADDQ         $8, AX
	CMPQ         AX, BX
	JLT          r2d_loop4

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, (DI)(R8*1)
	VMOVUPD Y5, 32(DI)(R8*1)
	VMOVUPD Y6, 64(DI)(R8*1)
	VMOVUPD Y7, 96(DI)(R8*1)
	ADDQ    $128, DI
	LEAQ    (CX)(R10*4), CX
	SUBQ    $4, DX
	JMP     r2d_four

r2d_one:
	TESTQ DX, DX
	JZ    r2d_done
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R8*1), Y4
	MOVQ    CX, R12
	XORQ    AX, AX

r2d_loop1:
	VMOVUPD      (R12), Y8
	VBROADCASTSD (SI)(AX*1), Y12
	VMULPD       Y8, Y12, Y14
	VADDPD       Y14, Y0, Y0
	VBROADCASTSD (R11)(AX*1), Y13
	VMULPD       Y8, Y13, Y15
	VADDPD       Y15, Y4, Y4
	ADDQ         $32, R12
	ADDQ         $8, AX
	CMPQ         AX, BX
	JLT          r2d_loop1

	VMOVUPD Y0, (DI)
	VMOVUPD Y4, (DI)(R8*1)
	ADDQ    $32, DI
	ADDQ    R10, CX
	DECQ    DX
	JMP     r2d_one

r2d_done:
	VZEROUPPER
	RET

// func qgemmKernel4x16AVX2(acc []int32, ldc int, aP []int16, bP []int8, kp int)
//
// 4×16 int8 qGEMM micro-kernel. The int32 accumulator tile lives in
// Y0–Y7 (two 8-lane registers per row). Each pair step sign-extends the
// 32 packed weight bytes (16 channels × 2 k values, channel-major pairs)
// into int16 lanes with VPMOVSXBW, broadcasts one activation pair per
// row with VPBROADCASTD and VPMADDWDs it against the weight pairs — two
// multiplies and an add per int32 lane, exact because both operands are
// int8-ranged (no VPMADDUBSW-style int16 saturation is reachable).
TEXT ·qgemmKernel4x16AVX2(SB), NOSPLIT, $0-88
	MOVQ acc_base+0(FP), DI
	MOVQ ldc+24(FP), SI
	MOVQ aP_base+32(FP), DX
	MOVQ bP_base+56(FP), CX
	MOVQ kp+80(FP), BX
	SHLQ $2, SI              // row stride in bytes

	// Load the accumulator tile.
	MOVQ    DI, R8
	VMOVDQU (R8), Y0
	VMOVDQU 32(R8), Y1
	ADDQ    SI, R8
	VMOVDQU (R8), Y2
	VMOVDQU 32(R8), Y3
	ADDQ    SI, R8
	VMOVDQU (R8), Y4
	VMOVDQU 32(R8), Y5
	ADDQ    SI, R8
	VMOVDQU (R8), Y6
	VMOVDQU 32(R8), Y7

	TESTQ BX, BX
	JZ    storeq

loopq:
	VPMOVSXBW    (CX), Y8    // channels 0–7, int16 kk-pairs
	VPMOVSXBW    16(CX), Y9  // channels 8–15
	VPBROADCASTD (DX), Y10   // row 0 activation pair
	VPMADDWD     Y8, Y10, Y11
	VPADDD       Y11, Y0, Y0
	VPMADDWD     Y9, Y10, Y11
	VPADDD       Y11, Y1, Y1
	VPBROADCASTD 4(DX), Y10  // row 1
	VPMADDWD     Y8, Y10, Y11
	VPADDD       Y11, Y2, Y2
	VPMADDWD     Y9, Y10, Y11
	VPADDD       Y11, Y3, Y3
	VPBROADCASTD 8(DX), Y10  // row 2
	VPMADDWD     Y8, Y10, Y11
	VPADDD       Y11, Y4, Y4
	VPMADDWD     Y9, Y10, Y11
	VPADDD       Y11, Y5, Y5
	VPBROADCASTD 12(DX), Y10 // row 3
	VPMADDWD     Y8, Y10, Y11
	VPADDD       Y11, Y6, Y6
	VPMADDWD     Y9, Y10, Y11
	VPADDD       Y11, Y7, Y7
	ADDQ         $16, DX
	ADDQ         $32, CX
	DECQ         BX
	JNZ          loopq

storeq:
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	ADDQ    SI, DI
	VMOVDQU Y2, (DI)
	VMOVDQU Y3, 32(DI)
	ADDQ    SI, DI
	VMOVDQU Y4, (DI)
	VMOVDQU Y5, 32(DI)
	ADDQ    SI, DI
	VMOVDQU Y6, (DI)
	VMOVDQU Y7, 32(DI)
	VZEROUPPER
	RET

// func transBQuadsAVX2(dst, a, b []float64, ldb int)
//
// Four-column float64 TransB dot over the first 4·⌊k/4⌋ steps:
// dst[j] = Σ_p a[p]·b[j·ldb+p], j = 0..3 (the Go wrapper finishes the
// ≤3-step tail so the asm stays branch-light). Each quad loads four
// consecutive values of all four B rows, transposes them in-register to
// per-p columns, and accumulates a[p]·col_p with separate VMULPD/VADDPD
// in ascending p — each dst lane is one unfused single-accumulator
// chain, bit-identical to the scalar oracle.
TEXT ·transBQuadsAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), BX    // k
	MOVQ b_base+48(FP), CX
	MOVQ ldb+72(FP), DX
	SHLQ $3, DX              // row stride in bytes

	LEAQ (CX)(DX*1), R8      // b row 1
	LEAQ (R8)(DX*1), R9      // b row 2
	LEAQ (R9)(DX*1), R10     // b row 3

	VXORPD Y0, Y0, Y0        // acc = [s0, s1, s2, s3]

	SHRQ $2, BX              // quad count
	JZ   storet

loopt:
	VMOVUPD (CX), Y1         // b0: p..p+3
	VMOVUPD (R8), Y2         // b1
	VMOVUPD (R9), Y3         // b2
	VMOVUPD (R10), Y4        // b3
	// 4×4 transpose: Y9..Y12 = columns p..p+3.
	VUNPCKLPD  Y2, Y1, Y5    // [b0p0, b1p0, b0p2, b1p2]
	VUNPCKHPD  Y2, Y1, Y6    // [b0p1, b1p1, b0p3, b1p3]
	VUNPCKLPD  Y4, Y3, Y7    // [b2p0, b3p0, b2p2, b3p2]
	VUNPCKHPD  Y4, Y3, Y8    // [b2p1, b3p1, b2p3, b3p3]
	VPERM2F128 $0x20, Y7, Y5, Y9
	VPERM2F128 $0x20, Y8, Y6, Y10
	VPERM2F128 $0x31, Y7, Y5, Y11
	VPERM2F128 $0x31, Y8, Y6, Y12
	// Ascending p, unfused multiply+add per lane.
	VBROADCASTSD (SI), Y13
	VMULPD       Y9, Y13, Y13
	VADDPD       Y13, Y0, Y0
	VBROADCASTSD 8(SI), Y13
	VMULPD       Y10, Y13, Y13
	VADDPD       Y13, Y0, Y0
	VBROADCASTSD 16(SI), Y13
	VMULPD       Y11, Y13, Y13
	VADDPD       Y13, Y0, Y0
	VBROADCASTSD 24(SI), Y13
	VMULPD       Y12, Y13, Y13
	VADDPD       Y13, Y0, Y0
	ADDQ         $32, SI
	ADDQ         $32, CX
	ADDQ         $32, R8
	ADDQ         $32, R9
	ADDQ         $32, R10
	DECQ         BX
	JNZ          loopt

storet:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func dotChunksAVX2(a, b []float32) float32
//
// Float32 dot over the first 8·⌊k/8⌋ elements (wrapper finishes the
// tail): two 8-lane FMA accumulators, horizontally summed at the end.
// Float32 is tolerance-gated, so reassociation and fusion are fine.
TEXT ·dotChunksAVX2(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), BX
	MOVQ b_base+24(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

	MOVQ BX, DX
	SHRQ $4, DX              // 16-wide chunks
	JZ   dot8

loop16:
	VMOVUPS     (SI), Y2
	VFMADD231PS (CX), Y2, Y0
	VMOVUPS     32(SI), Y3
	VFMADD231PS 32(CX), Y3, Y1
	ADDQ        $64, SI
	ADDQ        $64, CX
	DECQ        DX
	JNZ         loop16

dot8:
	ANDQ $8, BX
	JZ   dsum
	VMOVUPS     (SI), Y2
	VFMADD231PS (CX), Y2, Y0

dsum:
	VADDPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	VMOVSS       X0, ret+48(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
