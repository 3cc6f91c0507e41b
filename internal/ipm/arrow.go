package ipm

import (
	"math"

	"plbhec/internal/linalg"
)

// This file solves the Newton step of the perturbed KKT system in O(n) time
// and storage by exploiting its arrow (bordered block-diagonal) structure
// instead of factoring the dense (4n+2)² Jacobian.
//
// In the step's variable order u(0..n-1), τ(n), s, λ, z, ν, the four rows
// belonging to unit g — stationarity wrt u_g, primal feasibility, and the
// two complementarity rows — only touch that unit's own four
// unknowns (du_g, ds_g, dλ_g, dz_g) plus the two globals dτ and dν:
//
//	 B_g · (du_g, ds_g, dλ_g, dz_g)ᵀ + dτ·c_τ + dν·c_ν = r_g
//	 B_g = ⎡ λ_g·E″_g   0    E′_g   −1 ⎤      c_τ = (0, −1, 0, 0)ᵀ
//	       ⎢ E′_g       1    0       0 ⎥      c_ν = (1, 0, 0, 0)ᵀ
//	       ⎢ z_g        0    0     u_g ⎥
//	       ⎣ 0         λ_g  s_g      0 ⎦
//
// and the two coupling rows close the system over every unit:
//
//	τ-row:  −Σ_g dλ_g = r_τ        ν-row:  Σ_g du_g = r_ν
//
// Block elimination substitutes d_g = w⁰_g − dτ·wᵀ_g − dν·wᴺ_g with
// w⁰ = B⁻¹r, wᵀ = B⁻¹c_τ, wᴺ = B⁻¹c_ν into the coupling rows, leaving a
// 2×2 Schur complement in (dτ, dν). Each unit costs one pivoted 4×4
// factorization and three solves, so the whole step is O(n) — against
// O((4n+2)³) for the dense LU, which at 10k PUs would also need a ~13 GB
// Jacobian.

// arrowWorkspace holds the structured solve's per-unit storage, reused
// across iterations and solves (zero allocations in steady state).
type arrowWorkspace struct {
	blk []linalg.LU4 // per-unit diagonal block factorizations
	w0  []float64    // 4n: B⁻¹·r_g, the eliminated right-hand sides
	wt  []float64    // 4n: B⁻¹·c_τ
	wn  []float64    // 4n: B⁻¹·c_ν
}

func (w *arrowWorkspace) resize(n int) {
	if cap(w.blk) < n {
		w.blk = make([]linalg.LU4, n)
		w.w0 = make([]float64, 4*n)
		w.wt = make([]float64, 4*n)
		w.wn = make([]float64, 4*n)
	}
	w.blk = w.blk[:n]
	w.w0 = w.w0[:4*n]
	w.wt = w.wt[:4*n]
	w.wn = w.wn[:4*n]
}

// arrowSolve computes the Newton direction J·d = −R of the perturbed KKT
// system without materializing J (the dense assembly, kktSystem in
// arrow_test.go, is the test oracle), from the curve values cached in it.e
// and it.d. The direction is written into step in the layout
// (du, dτ, ds, dλ, dz, dν). A singular diagonal block or Schur system
// returns ErrIllConditioned — the same class a dense factorization reports
// — and the caller falls back to water-filling.
func arrowSolve(sc *scaled, it *iterate, mu float64, ws *arrowWorkspace, step linalg.Vector) error {
	n := sc.n
	ws.resize(n)
	cT := [4]float64{0, -1, 0, 0}
	cN := [4]float64{1, 0, 0, 0}
	// Schur accumulators: sums over units of the dλ (index 2) and du
	// (index 0) components of the three eliminated solutions.
	var s0l, stl, snl float64
	var s0u, stu, snu float64
	for g := 0; g < n; g++ {
		d1 := it.d[g]
		d2 := sc.deriv2(g, it.u[g])
		b := [16]float64{
			it.lam[g] * d2, 0, d1, -1,
			d1, 1, 0, 0,
			it.z[g], 0, 0, it.u[g],
			0, it.lam[g], it.s[g], 0,
		}
		if err := ws.blk[g].Factor(&b); err != nil {
			return ErrIllConditioned
		}
		// Right-hand side is the negated residual.
		r := [4]float64{
			-(it.lam[g]*d1 + it.nu - it.z[g]),
			-(it.e[g] - it.tau + it.s[g]),
			-(it.u[g]*it.z[g] - mu),
			-(it.s[g]*it.lam[g] - mu),
		}
		var w0, wt, wn [4]float64
		ws.blk[g].SolveInto(&w0, r)
		ws.blk[g].SolveInto(&wt, cT)
		ws.blk[g].SolveInto(&wn, cN)
		for k := 0; k < 4; k++ {
			ws.w0[4*g+k] = w0[k]
			ws.wt[4*g+k] = wt[k]
			ws.wn[4*g+k] = wn[k]
		}
		s0u, stu, snu = s0u+w0[0], stu+wt[0], snu+wn[0]
		s0l, stl, snl = s0l+w0[2], stl+wt[2], snl+wn[2]
	}

	// Negated residuals of the coupling rows: r_τ = −(1 − Σλ) and
	// r_ν = −(Σu − 1).
	rT, rN := -1.0, 1.0
	for g := 0; g < n; g++ {
		rT += it.lam[g]
		rN -= it.u[g]
	}
	// Substituting d_g = w⁰ − dτ·wᵀ − dν·wᴺ into the coupling rows:
	//   −Σdλ = r_τ  →  (Σwᵀλ)·dτ + (Σwᴺλ)·dν = r_τ + Σw⁰λ
	//    Σdu = r_ν  →  (−Σwᵀu)·dτ + (−Σwᴺu)·dν = r_ν − Σw⁰u
	a11, a12, b1 := stl, snl, rT+s0l
	a21, a22, b2 := -stu, -snu, rN-s0u
	var dtau, dnu float64
	// 2×2 elimination with row pivoting.
	if math.Abs(a11) >= math.Abs(a21) {
		if a11 == 0 {
			return ErrIllConditioned
		}
		m := a21 / a11
		den := a22 - m*a12
		if den == 0 {
			return ErrIllConditioned
		}
		dnu = (b2 - m*b1) / den
		dtau = (b1 - a12*dnu) / a11
	} else {
		m := a11 / a21
		den := a12 - m*a22
		if den == 0 {
			return ErrIllConditioned
		}
		dnu = (b1 - m*b2) / den
		dtau = (b2 - a22*dnu) / a21
	}

	step[n] = dtau
	step[4*n+1] = dnu
	for g := 0; g < n; g++ {
		step[g] = ws.w0[4*g] - dtau*ws.wt[4*g] - dnu*ws.wn[4*g]
		step[n+1+g] = ws.w0[4*g+1] - dtau*ws.wt[4*g+1] - dnu*ws.wn[4*g+1]
		step[2*n+1+g] = ws.w0[4*g+2] - dtau*ws.wt[4*g+2] - dnu*ws.wn[4*g+2]
		step[3*n+1+g] = ws.w0[4*g+3] - dtau*ws.wt[4*g+3] - dnu*ws.wn[4*g+3]
	}
	return nil
}
