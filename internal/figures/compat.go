package figures

import (
	"dsm/internal/exper"
	"dsm/internal/machine"
)

// Experiment execution moved to internal/exper (the point spec, machine
// slots, and parallel sweep executor live there); these aliases keep
// the original figures names working for existing callers during the
// migration. New code should use exper directly — figures is the
// presentation layer and only renders experiment results.

// Pattern aliases the synthetic sharing pattern for brevity.
type Pattern = exper.Pattern

// Bar is one bar of the paper's figures 3-6 (see exper.Bar).
type Bar = exper.Bar

// RunOpts scales an experiment (see exper.RunOpts).
type RunOpts = exper.RunOpts

// RealApp identifies one of the paper's real applications (see exper.App).
type RealApp = exper.App

// Table1Row is one measured row of Table 1 (see exper.Table1Row).
type Table1Row = exper.Table1Row

const (
	AppLocusRoute = exper.AppLocusRoute
	AppCholesky   = exper.AppCholesky
	AppTClosure   = exper.AppTClosure
)

// SyntheticBars returns the paper's 21 bars in figure order.
func SyntheticBars() []Bar { return exper.SyntheticBars() }

// Defaults is the paper-scale configuration.
func Defaults() RunOpts { return exper.Defaults() }

// Small is a reduced configuration for tests and quick runs.
func Small() RunOpts { return exper.Small() }

// Patterns returns the paper's ten sharing patterns.
func Patterns(o RunOpts) []Pattern { return exper.Patterns(o) }

// RealApps lists the figure 2/6 applications in paper order.
func RealApps() []RealApp { return exper.RealApps() }

// NewMachine builds a machine for one bar; close it when done.
func NewMachine(o RunOpts, b Bar) *machine.Machine { return exper.NewMachine(o, b) }

// Sweep fans job(0)..job(n-1) across par workers (see exper.Sweep).
func Sweep(n, par int, job func(i int)) { exper.Sweep(n, par, job) }

// Table1 measures Table 1's serialized message counts.
func Table1() []Table1Row { return exper.Table1() }

// Table1Par is Table1 with an explicit sweep width.
func Table1Par(par int) []Table1Row { return exper.Table1Par(par) }

// RunReal executes one real application under one bar configuration.
func RunReal(app RealApp, o RunOpts, bar Bar) (*machine.Machine, uint64) {
	return exper.RunReal(app, o, bar)
}

// TCEfficiency measures Transitive Closure's parallel efficiency.
func TCEfficiency(o RunOpts, bar Bar) float64 { return exper.TCEfficiency(o, bar) }
