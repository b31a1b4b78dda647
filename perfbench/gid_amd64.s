#include "textflag.h"

// func curg() uintptr
TEXT ·curg(SB),NOSPLIT,$0-8
	MOVQ (TLS), R13
	MOVQ R13, ret+0(FP)
	RET
