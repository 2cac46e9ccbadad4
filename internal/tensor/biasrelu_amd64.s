//go:build !noasm

#include "textflag.h"

// func biasReLUChunks32AVX2(x, b []float32)
//
// x[i] = max(x[i]+b[i], +0) over the first 8·⌊len(x)/8⌋ elements (the Go
// wrapper finishes the tail). VMAXPS returns its second source when either
// input is NaN or both are zeros, and that source is +0 here, so a NaN or
// −0 sum becomes +0 exactly as the portable loop's !(v > 0) does.
TEXT ·biasReLUChunks32AVX2(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	VXORPS Y15, Y15, Y15

	MOVQ CX, DX
	SHRQ $5, DX              // 32-wide passes
	JZ   tail8

loop32:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VADDPS  (SI), Y0, Y0
	VADDPS  32(SI), Y1, Y1
	VADDPS  64(SI), Y2, Y2
	VADDPS  96(SI), Y3, Y3
	VMAXPS  Y15, Y0, Y0
	VMAXPS  Y15, Y1, Y1
	VMAXPS  Y15, Y2, Y2
	VMAXPS  Y15, Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	DECQ    DX
	JNZ     loop32

tail8:
	ANDQ $31, CX
	SHRQ $3, CX              // 8-wide chunks left
	JZ   done

loop8:
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMAXPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     loop8

done:
	VZEROUPPER
	RET

// func biasReLUChunks64AVX2(x, b []float64)
//
// The float64 pass over the first 4·⌊len(x)/4⌋ elements: VADDPD, then
// VMAXPD against +0, as above.
TEXT ·biasReLUChunks64AVX2(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	VXORPD Y15, Y15, Y15

	MOVQ CX, DX
	SHRQ $4, DX              // 16-wide passes
	JZ   tail4

loop16:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VADDPD  (SI), Y0, Y0
	VADDPD  32(SI), Y1, Y1
	VADDPD  64(SI), Y2, Y2
	VADDPD  96(SI), Y3, Y3
	VMAXPD  Y15, Y0, Y0
	VMAXPD  Y15, Y1, Y1
	VMAXPD  Y15, Y2, Y2
	VMAXPD  Y15, Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	DECQ    DX
	JNZ     loop16

tail4:
	ANDQ $15, CX
	SHRQ $2, CX              // 4-wide chunks left
	JZ   done

loop4:
	VMOVUPD (DI), Y0
	VADDPD  (SI), Y0, Y0
	VMAXPD  Y15, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     loop4

done:
	VZEROUPPER
	RET
