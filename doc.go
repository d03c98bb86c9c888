// Package webbrief is a pure-Go (stdlib-only) reproduction of "Automatic
// Webpage Briefing" (Dai, Zhang, Qi — ICDE 2021): the webpage-briefing task,
// the Joint-WB model, the Dual-Distill and Tri-Distill knowledge-distillation
// methods, every baseline the paper evaluates, and a benchmark harness that
// regenerates every table of the paper's evaluation section.
//
// The public surface is the three commands (cmd/wbrief, cmd/wbtrain,
// cmd/wbexp) and the runnable examples under examples/. The implementation
// lives in internal/: tensor math and autodiff (tensor, ag), neural layers
// (nn), optimizers (opt), an HTML renderer (htmldom), text preprocessing and
// WordPiece (textproc), embeddings (embed), the synthetic labelled corpus
// (corpus), the core models (wb), distillation (distill), baselines
// (baselines), metrics (eval) and the experiment drivers (experiments).
//
// The repository's contracts are machine-enforced by cmd/wbcheck, a
// stdlib-only static-analysis suite built on internal/analysis: per-package
// AST/type passes for determinism and numeric safety, plus a cross-package
// facts layer (serialized per-package summaries read by dependents, in the
// spirit of go/analysis facts) whose blockfacts call-graph summary of
// blocking and shutdown behaviour powers the concurrency passes
// (goshutdown, lockhold, poolbalance). The /metrics partitions need no pass:
// each is declared once with internal/metrics and is exact by construction.
//
// See README.md for a tour, DESIGN.md for the system inventory and the
// paper-to-module mapping, and EXPERIMENTS.md for reproduced-vs-paper
// results.
package webbrief
