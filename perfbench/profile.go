package main

import (
	"bufio"
	"fmt"
	"math"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// attributionTolerance is how far the per-layer self-time shares may sum
// from the profiled CPU (1.0) before a traced run fails its checks. pprof
// prints whole milliseconds of 10 ms samples, so a complete listing sums
// exactly; the tolerance only absorbs rows pprof drops.
const attributionTolerance = 0.01

// layers partition profiled CPU by the package of the function a sample
// was taken in (its self time): one per measured module, plus the standard
// library layers the serve and field workloads lean on, plus "other".
var layers = []string{
	"experiments", "parallel", "env", "mdp", "core", "policy", "jammer",
	"rl", "nn", "serve", "iot", "mac", "rand", "json", "http", "runtime", "other",
}

var measuredModules = map[string]bool{
	"experiments": true, "parallel": true, "env": true, "mdp": true, "core": true,
	"policy": true, "jammer": true, "rl": true, "nn": true, "serve": true,
	"iot": true, "mac": true,
}

// layerOf maps a pprof function name to its layer.
func layerOf(fn string) string {
	pkg := pkgOf(fn)
	switch {
	case strings.HasPrefix(pkg, "ctjam/internal/"):
		if m := strings.TrimPrefix(pkg, "ctjam/internal/"); measuredModules[m] {
			return m
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "math/rand":
		return "rand"
	case pkg == "encoding/json" || pkg == "strconv":
		return "json"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "bufio" ||
		pkg == "internal/poll" || pkg == "syscall" || pkg == "io":
		return "http"
	}
	return "other"
}

// pkgOf returns the import path of a pprof function name such as
// "ctjam/internal/nn.(*Dense).Backward" or "runtime.mallocgc".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// hotFunctions are the single functions whose cumulative share the traced
// runs report, as regexps over pprof function names. Functions matched by
// one entry never call each other, so their cumulative times add.
var hotFunctions = map[string]*regexp.Regexp{
	"nn.matmul_cpu_share":     regexp.MustCompile(`^ctjam/internal/nn\.(MatMulInto|matMulBatchInto)$`),
	"nn.backward_cpu_share":   regexp.MustCompile(`^ctjam/internal/nn\.\(\*Dense\)\.Backward$`),
	"nn.adam_cpu_share":       regexp.MustCompile(`^ctjam/internal/nn\.\(\*Adam\)\.Step$`),
	"iot.runslot_cpu_share":   regexp.MustCompile(`^ctjam/internal/iot\.\(\*cluster\)\.runSlot$`),
	"iot.slotwheel_cpu_share": regexp.MustCompile(`^ctjam/internal/iot\.\(\*slotWheel\)\.(build|hits)$`),
	"rand.seed_cpu_share":     regexp.MustCompile(`^math/rand\.\(\*rngSource\)\.Seed$`),
}

// topRow is one function line of `pprof -top`.
type topRow struct {
	name      string
	flat, cum float64 // milliseconds
}

// topReport is a parsed `pprof -top` listing.
type topReport struct {
	total float64 // profiled CPU, milliseconds
	rows  []topRow
}

// pprofTop runs the installed `go tool pprof -top` over the profiles (merged
// when several) with every node listed, and parses its output. Extra pprof
// flags, such as -tagfocus, go before the files.
func pprofTop(extra []string, profiles ...string) (*topReport, error) {
	args := []string{"tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0"}
	args = append(append(args, extra...), profiles...)
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, out)
	}
	return parseTop(string(out))
}

var totalRE = regexp.MustCompile(`of ([0-9.]+)ms total`)

// parseTop parses `pprof -top -unit=ms` text: the "Showing nodes accounting
// for A, P% of T total" header gives the profiled CPU T, and each following
// row reads "flat flat% sum% cum cum% name".
func parseTop(text string) (*topReport, error) {
	rep := &topReport{}
	sc := bufio.NewScanner(strings.NewReader(text))
	header := false
	for sc.Scan() {
		line := sc.Text()
		if m := totalRE.FindStringSubmatch(line); m != nil {
			v, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				return nil, fmt.Errorf("pprof total %q: %w", m[1], err)
			}
			rep.total = v
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 5 && f[0] == "flat" && f[1] == "flat%" {
			header = true
			continue
		}
		if !header || len(f) < 6 {
			continue
		}
		flat, err1 := parseMS(f[0])
		cum, err2 := parseMS(f[3])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("pprof row %q: bad durations", line)
		}
		rep.rows = append(rep.rows, topRow{name: strings.Join(f[5:], " "), flat: flat, cum: cum})
	}
	if !header {
		if rep.total == 0 && strings.Contains(text, "Total samples = 0") {
			return rep, nil // nothing was sampled
		}
		return nil, fmt.Errorf("pprof output has no row header:\n%s", text)
	}
	return rep, nil
}

func parseMS(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
}

// layerShares returns each layer's share of the profiled CPU by self time.
func (t *topReport) layerShares() map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	if t.total == 0 {
		return out
	}
	for _, r := range t.rows {
		out[layerOf(r.name)] += r.flat / t.total
	}
	return out
}

// attributed is the listed self time as a share of the profiled CPU: the
// layer shares sum to it, and it must be 1 within attributionTolerance.
func (t *topReport) attributed() float64 {
	if t.total == 0 {
		return 1
	}
	return t.kept() / t.total
}

// cumShare is the cumulative share of the functions re matches.
func (t *topReport) cumShare(re *regexp.Regexp) float64 {
	if t.total == 0 {
		return 0
	}
	var sum float64
	for _, r := range t.rows {
		if re.MatchString(r.name) {
			sum += r.cum
		}
	}
	return sum / t.total
}

// attribute fills the profile-derived per-layer metrics of r from the
// merged profiles and checks that the layer shares add up.
func attribute(r *run, profiles ...string) error {
	top, err := pprofTop(nil, profiles...)
	if err != nil {
		return err
	}
	for l, v := range top.layerShares() {
		r.layer[l+".cpu_share"] = v
	}
	for name, re := range hotFunctions {
		r.layer[name] = top.cumShare(re)
	}
	a := top.attributed()
	r.layer["profile.attributed_share"] = a
	if math.Abs(a-1) > attributionTolerance {
		r.fail("layer shares sum to %.4f of profiled CPU, outside 1±%g", a, attributionTolerance)
	}
	if top.total == 0 {
		r.fail("CPU profile holds no samples")
	}
	return nil
}

// kept is the sum of the listed self times: with a focus filter, the
// profiled CPU the filter kept.
func (t *topReport) kept() float64 {
	var sum float64
	for _, r := range t.rows {
		sum += r.flat
	}
	return sum
}
