package apps

import (
	"fmt"
	"math"

	"plbhec/internal/stats"
)

// Option is one Black-Scholes pricing problem.
type Option struct {
	Spot, Strike, Rate, Volatility, Maturity float64
}

// LiveBlackScholes prices a vector of European call options two ways: a
// Monte-Carlo random walk (the paper's "random walk term", the expensive
// kernel that gets load-balanced) and the closed-form Black-Scholes formula
// used by Verify as ground truth.
type LiveBlackScholes struct {
	Options []Option
	Paths   int
	Steps   int
	Price   []float64 // Monte-Carlo result per option
	seed    int64
}

// NewLiveBlackScholes generates n options deterministically from seed.
func NewLiveBlackScholes(n, paths, steps int, seed int64) *LiveBlackScholes {
	rng := stats.NewRNG(seed)
	bs := &LiveBlackScholes{
		Options: make([]Option, n),
		Paths:   paths,
		Steps:   steps,
		Price:   make([]float64, n),
		seed:    seed,
	}
	for i := range bs.Options {
		bs.Options[i] = Option{
			Spot:       50 + 50*rng.Float64(),
			Strike:     50 + 50*rng.Float64(),
			Rate:       0.01 + 0.04*rng.Float64(),
			Volatility: 0.1 + 0.4*rng.Float64(),
			Maturity:   0.25 + 1.75*rng.Float64(),
		}
	}
	return bs
}

// Execute prices options [lo,hi) by Monte-Carlo simulation of geometric
// Brownian motion. Disjoint ranges are safe to run concurrently.
func (bs *LiveBlackScholes) Execute(lo, hi int64) {
	for i := lo; i < hi; i++ {
		opt := bs.Options[i]
		rng := stats.NewRNG(bs.seed).Split(int64(i))
		dt := opt.Maturity / float64(bs.Steps)
		drift := (opt.Rate - 0.5*opt.Volatility*opt.Volatility) * dt
		vol := opt.Volatility * math.Sqrt(dt)
		logS0 := math.Log(opt.Spot)
		var payoff float64
		for p := 0; p < bs.Paths; p++ {
			logS := logS0
			for s := 0; s < bs.Steps; s++ {
				logS += drift + vol*rng.Normal(0, 1)
			}
			if v := math.Exp(logS) - opt.Strike; v > 0 {
				payoff += v
			}
		}
		bs.Price[i] = math.Exp(-opt.Rate*opt.Maturity) * payoff / float64(bs.Paths)
	}
}

// Analytic returns the closed-form Black-Scholes price of opt.
func Analytic(opt Option) float64 {
	sqrtT := math.Sqrt(opt.Maturity)
	d1 := (math.Log(opt.Spot/opt.Strike) + (opt.Rate+0.5*opt.Volatility*opt.Volatility)*opt.Maturity) /
		(opt.Volatility * sqrtT)
	d2 := d1 - opt.Volatility*sqrtT
	return opt.Spot*cnd(d1) - opt.Strike*math.Exp(-opt.Rate*opt.Maturity)*cnd(d2)
}

// cnd is the cumulative standard normal distribution.
func cnd(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// Verify checks every Monte-Carlo price against the analytic formula within
// Monte-Carlo error. It must be called only after all options are priced.
func (bs *LiveBlackScholes) Verify() error {
	for i, opt := range bs.Options {
		want := Analytic(opt)
		got := bs.Price[i]
		// MC standard error scales as sigma/sqrt(paths); allow 6 sigma with
		// a generous payoff-scale estimate.
		tol := 6 * (opt.Spot * opt.Volatility) / math.Sqrt(float64(bs.Paths))
		if math.Abs(got-want) > tol+0.5 {
			return fmt.Errorf("blackscholes: option %d priced %.4f, analytic %.4f (tol %.4f)",
				i, got, want, tol)
		}
	}
	return nil
}
