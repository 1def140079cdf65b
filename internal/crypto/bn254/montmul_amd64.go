package bn254

// hasADX reports BMI2 (MULX) and ADX (ADCX, ADOX), which the assembly of
// montMul, fp2Mul, fp6Mul and the Fq¹² kernels needs; without them each
// jumps to its generic Go. Package-level initialisers
// that run before this one (fp2Xi) read false and take the generic path,
// which gives the same bits.
var hasADX = supportsADX()

// supportsADX reads CPUID leaf 7, subleaf 0: BMI2 is EBX bit 8, ADX bit 19.
func supportsADX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<8) != 0 && b&(1<<19) != 0
}

// Constants the lazily reduced assembly reads from memory, written out so
// that they hold before any initialiser runs (TestWideConstants derives
// them from Q): fpTwoQ is 2Q, the addend that keeps a0 − a1 nonnegative in
// a wide square, and fpWideOffset is 80Q in five words, the multiple of Q
// that makes every wide coefficient's high half nonnegative before its
// reduction (FINISH in montmul_amd64.s).
var (
	fpTwoQ       = [4]uint64{0x7841182db0f9fa8e, 0x2f02d522d0e3951a, 0x70a08b6d0302b0bb, 0x60c89ce5c2634053}
	fpWideOffset = [5]uint64{0xca2bc723a70f2630, 0x58714d70a38f4c22, 0x9915c908786b9d3f, 0x1f5883e65f820d09, 0xf}
)

// montMul sets z = x·y·2⁻²⁵⁶ mod Q with montMulGeneric's contract (fp.go):
// operands below 2Q, a result below Q, z may alias x or y.
//
//go:noescape
func montMul(z, x, y *fp)

// fp2Mul sets z = x·y with fp2MulGeneric's contract (fp2.go): operands
// below Q, z may alias x or y. With ADX/BMI2 it is fp2MulADX.
//
//go:noescape
func fp2Mul(z, x, y *fp2)

//go:noescape
func fp2MulADX(z, x, y *fp2)

// fp6Mul sets z = x·y with fp6MulGeneric's contract (fp6.go): components
// below Q, z may alias x or y. With ADX/BMI2 it is fp6MulADX.
//
//go:noescape
func fp6Mul(z, x, y *fp6)

//go:noescape
func fp6MulADX(z, x, y *fp6)

// fp12Mul sets z = x·y with fp12MulGeneric's contract (fp12.go):
// components below Q, z may alias x or y. With ADX/BMI2 it is fp12MulADX.
//
//go:noescape
func fp12Mul(z, x, y *fp12)

//go:noescape
func fp12MulADX(z, x, y *fp12)

// fp12Square sets z = x² with fp12SquareGeneric's contract (fp12.go).
// With ADX/BMI2 it is fp12SquareADX.
//
//go:noescape
func fp12Square(z, x *fp12)

//go:noescape
func fp12SquareADX(z, x *fp12)

// fp12CyclotomicSquare sets z = x² for x in the cyclotomic subgroup, with
// fp12CyclotomicSquareGeneric's contract (fp12.go). With ADX/BMI2 it is
// fp12CyclotomicSquareADX.
//
//go:noescape
func fp12CyclotomicSquare(z, x *fp12)

//go:noescape
func fp12CyclotomicSquareADX(z, x *fp12)

// fp12MulLine multiplies f by the line l evaluated at a, with
// fp12MulLineGeneric's contract (pairing.go). With ADX/BMI2 it is
// fp12MulLineADX.
//
//go:noescape
func fp12MulLine(f *fp12, l *normLine, a *evalArg)

//go:noescape
func fp12MulLineADX(f *fp12, l *normLine, a *evalArg)

// fp2WideADX, fp2SqWideADX, fp6CombineADX and wideFinishADX are
// subroutines of the kernels above, which pass them their operands in
// registers (montmul_amd64.s); Go never calls them.
func fp2WideADX()
func fp2SqWideADX()
func fp6CombineADX()
func wideFinishADX()

func cpuid(leaf, sub uint32) (a, b, c, d uint32)
