package bn254

// hasADX reports BMI2 (MULX) and ADX (ADCX, ADOX), which the assembly of
// montMul and fp2Mul needs; without them each jumps to its generic Go.
// Package-level initialisers that run before this one (fp2Xi) read false
// and take the generic path, which gives the same bits.
var hasADX = supportsADX()

// supportsADX reads CPUID leaf 7, subleaf 0: BMI2 is EBX bit 8, ADX bit 19.
func supportsADX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<8) != 0 && b&(1<<19) != 0
}

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

func cpuid(leaf, sub uint32) (a, b, c, d uint32)
