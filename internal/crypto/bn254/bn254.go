// Package bn254 implements the BN254 (alt_bn128 / BN-P254) pairing-
// friendly elliptic curve from scratch on the standard library: the base
// field Fq, the field extensions Fq² and Fq¹², the groups G1 and G2, and
// the optimal ate pairing. It is the curve the SBFT paper deploys for
// threshold BLS signatures (§III, [21][23]).
//
// One arithmetic runs in production: fixed 4×64-bit Montgomery limbs for
// Fq with no per-operation heap allocation (fp.go) — an unrolled no-carry
// CIOS multiplication, mask-selected additions, a binary Euclid inversion —
// under a dedicated 2-3-2 tower (Fq² = Fq[i]/(i²+1), Fq⁶ = Fq²[v]/(v³−(9+i)),
// Fq¹² = Fq⁶[w]/(w²−v)) with Frobenius coefficient tables. G1Point and
// G2Point carry fully reduced limb coordinates, so every group operation,
// codec and subgroup check runs on it: additions are one Jacobian mixed
// addition and one inversion back to affine. G1 has one scalar
// multiplication, G1MultiScalarMul: GLV half-scalars in width-4 NAF over one
// shared Jacobian doubling chain (ScalarMul is its one-term case). The
// pairing is a projective Miller loop over the NAF of 6u+2 with
// precomputable sparse lines, stored divided by their constant term so
// each costs two sparse fp6 products, and a final exponentiation by
// cyclotomic squarings and the width-4 NAF of u; its value is an opaque
// GT. math/big appears only for integers: scalars mod R, and the fixed
// exponents and curve parameter the init-time tables and the square root
// are computed from. The Frobenius tables, the twist constant and the GLV
// constants are derived at package init on the limb tower from ξ = 9 + i
// and u; the Montgomery constants the unrolled field code needs at compile
// time — the modulus limbs, −Q⁻¹ mod 2⁶⁴, 2²⁵⁶ and 2⁵¹² mod Q — are
// literals that TestFpConstants re-derives from Q.
//
// On amd64 CPUs with ADX and BMI2, montMul, fp2Mul, fp6Mul, fp12MulLine and
// fp12CyclotomicSquare run as MULX/ADCX/ADOX assembly (montmul_amd64.s),
// chosen once by CPUID at init; the three Fq⁶ kernels reduce once per
// output coefficient instead of once per product. Everywhere else they are
// the Go functions montMulGeneric, fp2MulGeneric and so on. That is still
// one arithmetic: one limb representation and one contract per function
// (operands below 2Q for montMul, below Q for the rest; results fully
// reduced; z may alias x or y), with two implementations whose outputs are
// bit-identical. The …MatchesGeneric tests and FuzzMontMul hold the
// assembly to the Go, and the Go stays the only path off amd64.
//
// The auditable math/big reference is test-only (reference_test.go): the
// field Fq and generic polynomial quotient rings FQP, where the tower
// behaviour (the Frobenius action included) follows from ordinary
// polynomial arithmetic rather than hand-derived constants, the affine
// chord-tangent group laws, and the affine Miller loop with the full final
// exponent. fast_test.go cross-checks every limb, tower, group, codec and
// pairing operation against it on random and boundary inputs, and the fuzz
// targets on whatever the fuzzer finds. Every structural property — group
// laws, subgroup orders, non-degeneracy and bilinearity of the pairing — is
// property-tested against both.
//
// Side channels: the package is variable-time in its secrets, as the
// math/big construction it grew from was. Signing multiplies a hashed
// point by the secret share: that loop branched on the share's bits when
// it was double-and-add and branches on its NAF digits (and indexes a
// table by them) now; fpInv's Euclid and fpLegendre's binary Jacobi take
// data-dependent paths too. The mask-selected field additions, and the CMOV-selected final
// subtraction of the assembly montMul, are optimisations, not a
// hardening. This fits the paper's setting — a permissioned deployment
// whose threat model is Byzantine replicas, not an attacker timing a
// co-located signer — and would have to change before the code signed for
// anyone who can measure it.
package bn254

import "math/big"

// Curve constants (decimal, from the BN254 specification).
var (
	// Q is the base field modulus.
	Q, _ = new(big.Int).SetString("21888242871839275222246405745257275088696311157297823662689037894645226208583", 10)
	// R is the order of G1 and G2 (the scalar field modulus).
	R, _ = new(big.Int).SetString("21888242871839275222246405745257275088548364400416034343698204186575808495617", 10)
	// ateLoopCount is 6u+2 for the BN parameter u.
	ateLoopCount, _ = new(big.Int).SetString("29793968203157093288", 10)
)
