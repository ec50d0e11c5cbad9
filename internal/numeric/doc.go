// Package numeric provides the small numerical toolkit the mining game
// needs: scalar optimization and root finding, projections onto the
// miners' constraint polytopes, Gaussian distributions (continuous and
// discretized), and summary statistics.
//
// Everything is deterministic given the caller-supplied inputs; functions
// that need randomness take an explicit *rand.Rand.
package numeric
