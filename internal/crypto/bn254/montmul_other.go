//go:build !amd64

package bn254

// hasADX is false off amd64: the generic Go is the only implementation.
const hasADX = false

// montMul sets z = x·y·2⁻²⁵⁶ mod Q; see montMulGeneric (fp.go).
func montMul(z, x, y *fp) { montMulGeneric(z, x, y) }

// fp2Mul sets z = x·y; see fp2MulGeneric (fp2.go).
func fp2Mul(z, x, y *fp2) { fp2MulGeneric(z, x, y) }

// fp6Mul sets z = x·y; see fp6MulGeneric (fp6.go).
func fp6Mul(z, x, y *fp6) { fp6MulGeneric(z, x, y) }

// fp12Mul sets z = x·y; see fp12MulGeneric (fp12.go).
func fp12Mul(z, x, y *fp12) { fp12MulGeneric(z, x, y) }

// fp12Square sets z = x²; see fp12SquareGeneric (fp12.go).
func fp12Square(z, x *fp12) { fp12SquareGeneric(z, x) }

// fp12CyclotomicSquare squares x in the cyclotomic subgroup; see
// fp12CyclotomicSquareGeneric (fp12.go).
func fp12CyclotomicSquare(z, x *fp12) { fp12CyclotomicSquareGeneric(z, x) }

// fp12MulLine multiplies a prepared line, evaluated at a, into f; see
// fp12MulLineGeneric (pairing.go).
func fp12MulLine(f *fp12, l *normLine, a *evalArg) { fp12MulLineGeneric(f, l, a) }
