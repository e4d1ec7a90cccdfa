// Package cliutil is the flag-and-file adapter between the cmd/ tools
// and the canonical scenario layer (internal/scenario). It registers
// the shared specification flags — scheme, dimensions, request model,
// rate, and the -scenario JSON file — on a tool's FlagSet and assembles
// them into a scenario.Scenario. All interpretation of scheme names,
// model kinds, and defaults happens in internal/scenario; this package
// only moves strings.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"multibus/internal/scenario"
)

// ErrBadFlag is returned for unparseable tool arguments (list syntax
// and the like); scenario content errors carry scenario.ErrInvalid.
var ErrBadFlag = errors.New("cliutil: invalid flag value")

// ScenarioFlags holds the shared specification flags after parsing.
// Build it with RegisterScenarioFlags and convert with Scenario.
type ScenarioFlags struct {
	File       string // -scenario: JSON file overriding the spec flags
	Scheme     string
	N, M, B    int
	Groups     int
	Classes    int
	ClassSizes string // comma-separated, e.g. "2,6,8"
	Workload   string
	Clusters   int
	Q          float64
	R          float64
}

// Defaults parameterizes per-tool flag defaults; zero values take the
// paper's canonical configuration (full 16×16×8, hier workload, r=1).
type Defaults struct {
	Scheme   string
	N, B     int
	Workload string
	R        float64
}

// RegisterScenarioFlags registers the shared scenario flags on fs and
// returns the struct they parse into.
func RegisterScenarioFlags(fs *flag.FlagSet, d Defaults) *ScenarioFlags {
	if d.Scheme == "" {
		d.Scheme = "full"
	}
	if d.N == 0 {
		d.N = 16
	}
	if d.B == 0 {
		d.B = 8
	}
	if d.Workload == "" {
		d.Workload = "hier"
	}
	if d.R == 0 {
		d.R = 1.0
	}
	f := &ScenarioFlags{}
	fs.StringVar(&f.File, "scenario", "", "load the full scenario from a JSON file (overrides the spec flags)")
	fs.StringVar(&f.Scheme, "scheme", d.Scheme, "connection scheme: full, single, partial, kclass")
	fs.IntVar(&f.N, "n", d.N, "number of processors")
	fs.IntVar(&f.M, "m", 0, "number of memory modules (default n)")
	fs.IntVar(&f.B, "b", d.B, "number of buses")
	fs.IntVar(&f.Groups, "g", 0, "groups for -scheme partial (default 2)")
	fs.IntVar(&f.Classes, "k", 0, "classes for -scheme kclass (default b)")
	fs.StringVar(&f.ClassSizes, "classsizes", "", "explicit kclass module counts, e.g. 2,6,8 (overrides -k and -m)")
	fs.StringVar(&f.Workload, "workload", d.Workload, "request model: hier, unif, dasbhuyan, hotspot")
	fs.IntVar(&f.Clusters, "clusters", 0, "clusters for -workload hier (default 4, falling back to 2)")
	fs.Float64Var(&f.Q, "q", 0.5, "favorite-memory fraction for -workload dasbhuyan")
	fs.Float64Var(&f.R, "r", d.R, "per-cycle request probability")
	return f
}

// Scenario assembles the parsed flags into a scenario — or, when
// -scenario was given, loads the file instead (fromFile reports which).
// The scenario is not yet canonicalized; scheme-irrelevant flags (a -g
// next to -scheme full) are pruned by scenario canonicalization, so no
// scheme or model names are interpreted here.
func (f *ScenarioFlags) Scenario() (s scenario.Scenario, fromFile bool, err error) {
	if f.File != "" {
		s, err = scenario.Load(f.File)
		return s, true, err
	}
	sizes, err := ParseInts(f.ClassSizes)
	if err != nil {
		return scenario.Scenario{}, false, err
	}
	return scenario.Scenario{
		Network: scenario.Network{
			Scheme:     f.Scheme,
			N:          f.N,
			M:          f.M,
			B:          f.B,
			Groups:     f.Groups,
			Classes:    f.Classes,
			ClassSizes: sizes,
		},
		Model: scenario.Model{Kind: f.Workload, Clusters: f.Clusters, Q: f.Q},
		R:     f.R,
	}, false, nil
}

// LogFlags holds the shared logging flags after parsing. Build it with
// RegisterLogFlags and convert with Logger.
type LogFlags struct {
	Level  string // -log-level: debug, info, warn, error
	Format string // -log-format: text, json
}

// RegisterLogFlags registers the shared -log-level/-log-format flags on
// fs and returns the struct they parse into.
func RegisterLogFlags(fs *flag.FlagSet) *LogFlags {
	f := &LogFlags{}
	fs.StringVar(&f.Level, "log-level", "info", "log level: debug, info, warn, error")
	fs.StringVar(&f.Format, "log-format", "text", "log format: text, json")
	return f
}

// Logger builds the slog.Logger the flags describe, writing to w.
// Unknown level or format names are flag errors, not silent defaults.
func (f *LogFlags) Logger(w io.Writer) (*slog.Logger, error) {
	var level slog.Level
	switch strings.ToLower(f.Level) {
	case "debug":
		level = slog.LevelDebug
	case "info", "":
		level = slog.LevelInfo
	case "warn", "warning":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		return nil, fmt.Errorf("%w: -log-level %q (want debug, info, warn, or error)", ErrBadFlag, f.Level)
	}
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(f.Format) {
	case "text", "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("%w: -log-format %q (want text or json)", ErrBadFlag, f.Format)
	}
}

// ProfileFlags holds the shared profiling flags after parsing. Build it
// with RegisterProfileFlags and activate with Start.
type ProfileFlags struct {
	CPU string // -cpuprofile: pprof CPU profile output path
	Mem string // -memprofile: pprof heap profile output path
}

// RegisterProfileFlags registers the shared -cpuprofile/-memprofile
// flags on fs and returns the struct they parse into.
func RegisterProfileFlags(fs *flag.FlagSet) *ProfileFlags {
	f := &ProfileFlags{}
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&f.Mem, "memprofile", "", "write a pprof heap profile to this file on exit")
	return f
}

// Start activates the requested profiles and returns a stop function
// that finishes them: the CPU profile stops, and the heap profile is
// written after a GC so it reflects live objects rather than garbage.
// With neither flag set, both Start and stop are no-ops. The stop
// function must be called before the program exits (not via defer past
// os.Exit) or the CPU profile is truncated.
func (f *ProfileFlags) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if f.CPU != "" {
		cpuFile, err = os.Create(f.CPU)
		if err != nil {
			return nil, fmt.Errorf("cliutil: -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cliutil: -cpuprofile: %w", err)
		}
	}
	mem := f.Mem
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cliutil: -cpuprofile: %w", err)
			}
		}
		if mem == "" {
			return nil
		}
		memFile, err := os.Create(mem)
		if err != nil {
			return fmt.Errorf("cliutil: -memprofile: %w", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(memFile); err != nil {
			memFile.Close()
			return fmt.Errorf("cliutil: -memprofile: %w", err)
		}
		return memFile.Close()
	}, nil
}

// ParseInts parses a comma-separated integer list ("" means nil).
func ParseInts(list string) ([]int, error) {
	if list == "" {
		return nil, nil
	}
	parts := strings.Split(list, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("%w: %q is not an integer list", ErrBadFlag, list)
		}
		out[i] = v
	}
	return out, nil
}
