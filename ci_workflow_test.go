package mpros

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciWorkflow is the workflow TestCIWorkflow checks, relative to the module
// root.
const ciWorkflow = ".github/workflows/ci.yml"

// ciStep is one step of the workflow: its name and its run text, folded and
// literal block scalars already joined.
type ciStep struct {
	name, run string
	line      int
}

// yamlKey is a mapping key of the subset: a bare word.
var yamlKey = regexp.MustCompile(`^[A-Za-z0-9_-]+$`)

// parseCIWorkflow reads the workflow line by line in the YAML subset it is
// written in — block mappings and sequences of bare keys; values that are
// plain scalars, single-line flow sequences of plain words, or literal (|)
// and folded (>) block scalars — and returns its steps. A line outside the
// subset, or a plain scalar YAML would read otherwise than it reads (one
// holding ": " or " #", or opening with an indicator), is an error.
func parseCIWorkflow(t *testing.T, path string) []ciStep {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var steps []ciStep
	var block *strings.Builder // the block scalar being read, nil outside one
	blockIndent, folded := 0, false
	blockRun := -1 // the step whose run the block is, -1 for none
	endBlock := func() {
		if blockRun >= 0 {
			steps[blockRun].run = block.String()
		}
		block, blockRun = nil, -1
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		body := strings.TrimLeft(line, " ")
		indent := len(line) - len(body)
		if block != nil {
			if body == "" || indent > blockIndent {
				if folded {
					block.WriteString(body + " ")
				} else {
					block.WriteString(line + "\n")
				}
				continue
			}
			endBlock()
		}
		if body == "" || strings.HasPrefix(body, "#") {
			continue
		}
		if strings.Contains(line, "\t") {
			t.Fatalf("%s:%d: a tab", path, n)
		}
		item := strings.HasPrefix(body, "- ")
		if item {
			body = body[2:]
			indent += 2
		}
		key, value, hasValue := strings.Cut(body, ": ")
		if !hasValue {
			key = strings.TrimSuffix(body, ":")
			if key == body {
				t.Fatalf("%s:%d: %q is not a key of the subset", path, n, body)
			}
		}
		if !yamlKey.MatchString(key) {
			t.Fatalf("%s:%d: key %q is not a bare word", path, n, key)
		}
		if item && (key == "name" || key == "uses") {
			steps = append(steps, ciStep{line: n})
		}
		switch {
		case !hasValue:
		case value == "|" || value == ">" || value == "|-" || value == ">-":
			block, blockIndent, folded = new(strings.Builder), indent, value[0] == '>'
			if key == "run" && len(steps) > 0 {
				blockRun = len(steps) - 1
			}
		case strings.HasPrefix(value, "[") && strings.HasSuffix(value, "]"):
			for _, word := range strings.Split(value[1:len(value)-1], ",") {
				checkPlainScalar(t, path, n, strings.TrimSpace(word))
			}
		default:
			checkPlainScalar(t, path, n, value)
			if len(steps) > 0 && key == "name" {
				steps[len(steps)-1].name = value
			}
			if len(steps) > 0 && key == "run" {
				steps[len(steps)-1].run = value
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if block != nil {
		endBlock()
	}
	return steps
}

// checkPlainScalar fails the test on a plain scalar that YAML would not read
// as the string it looks like.
func checkPlainScalar(t *testing.T, path string, n int, v string) {
	t.Helper()
	switch {
	case v == "":
		t.Fatalf("%s:%d: an empty value", path, n)
	case strings.Contains(v, ": ") || strings.HasSuffix(v, ":"):
		t.Fatalf("%s:%d: plain scalar %q holds \": \", which YAML reads as a mapping", path, n, v)
	case strings.Contains(v, " #"):
		t.Fatalf("%s:%d: plain scalar %q holds \" #\", which YAML reads as a comment", path, n, v)
	case strings.ContainsRune("-?:,[]{}#&*!|>'\"%@`", rune(v[0])):
		t.Fatalf("%s:%d: plain scalar %q opens with an indicator", path, n, v)
	}
}

// goCommand is one go invocation of a run text: its directory (-C) and its
// arguments after the subcommand.
type goCommand struct {
	dir, sub string
	args     []string
}

// goCommands finds the go invocations in a run text. A command ends at the
// shell's separators; arguments are taken as the shell would, single quotes
// removed.
func goCommands(run string) []goCommand {
	var out []goCommand
	subcommands := map[string]bool{"build": true, "vet": true, "test": true, "run": true, "mod": true}
	for _, line := range strings.Split(run, "\n") {
		words := strings.Fields(line)
		for i := 0; i < len(words); i++ {
			if words[i] != "go" {
				continue
			}
			cmd := goCommand{dir: "."}
			j := i + 1
			if j+1 < len(words) && words[j] == "-C" {
				cmd.dir, j = words[j+1], j+2
			}
			if j >= len(words) || !subcommands[words[j]] {
				continue
			}
			cmd.sub = words[j]
			for j++; j < len(words); j++ {
				w := words[j]
				if w == "&&" || w == "||" || w == ";" || w == "|" || strings.HasPrefix(w, ">") || strings.HasPrefix(w, "2>") {
					break
				}
				cmd.args = append(cmd.args, strings.Trim(w, "'"))
			}
			out = append(out, cmd)
			i = j
		}
	}
	return out
}

// flagValue returns the value of a -name flag among args.
func flagValue(args []string, name string) (string, bool) {
	for i, a := range args {
		if a == name && i+1 < len(args) {
			return args[i+1], true
		}
		if v, ok := strings.CutPrefix(a, name+"="); ok {
			return v, true
		}
	}
	return "", false
}

// packagesOf returns the package directories a go command names, as paths
// relative to the module root: "./x/..." is x and every directory below it.
// A path that does not exist fails the test.
func packagesOf(t *testing.T, step string, cmd goCommand) []string {
	t.Helper()
	var dirs []string
	for _, a := range cmd.args {
		if a != "." && !strings.HasPrefix(a, "./") {
			continue
		}
		root, recursive := strings.CutSuffix(a, "/...")
		root = filepath.Join(cmd.dir, root)
		if fi, err := os.Stat(root); err != nil || !fi.IsDir() {
			t.Errorf("step %q names %s, which is not a directory", step, a)
			continue
		}
		if !recursive {
			dirs = append(dirs, root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir // another module
			}
			dirs = append(dirs, path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

var (
	testFunc = regexp.MustCompile(`(?m)^func (Test\w+)\(\w+ \*testing\.T\)`)
	fuzzFunc = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(\w+ \*testing\.F\)`)
)

// testFuncs returns the Test and Fuzz functions declared in one directory's
// test files.
func testFuncs(t *testing.T, dir string) (tests, fuzzes []string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			tests = append(tests, string(m[1]))
		}
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			fuzzes = append(fuzzes, string(m[1]))
		}
	}
	return tests, fuzzes
}

// matches counts the names pattern, a go test -run or -fuzz expression,
// matches.
func matches(t *testing.T, pattern string, names []string) int {
	t.Helper()
	re, err := regexp.Compile(pattern)
	if err != nil {
		t.Fatalf("pattern %q: %v", pattern, err)
	}
	n := 0
	for _, name := range names {
		if re.MatchString(name) {
			n++
		}
	}
	return n
}

// allocBudgetName matches the names the alloc-budget tests carry.
var allocBudgetName = regexp.MustCompile(`(AllocBudget|ZeroAlloc|AllocatesNothing|HeapBound)$`)

// TestCIWorkflow keeps the workflow honest about what it runs: it stays in
// the YAML subset it is written in, every alternative of a -run pattern's
// first level matches a test in the packages its step names, every -fuzz
// pattern names exactly one target, every package path exists, and every
// alloc-budget test of the module (named *AllocBudget, *ZeroAlloc,
// *AllocatesNothing or *HeapBound) is run by the "Alloc budgets" step — its
// pattern matches the test and the step names its package.
func TestCIWorkflow(t *testing.T) {
	steps := parseCIWorkflow(t, ciWorkflow)
	var allocRun string
	var allocDirs []string
	for _, step := range steps {
		for _, cmd := range goCommands(step.run) {
			dirs := packagesOf(t, step.name, cmd)
			var tests, fuzzes []string
			for _, dir := range dirs {
				ts, fs := testFuncs(t, dir)
				tests, fuzzes = append(tests, ts...), append(fuzzes, fs...)
			}
			if run, ok := flagValue(cmd.args, "-run"); ok && cmd.sub == "test" {
				// go test reads "/" as a subtest level: the
				// alternatives of the first level name the tests.
				top, _, _ := strings.Cut(run, "/")
				for _, alt := range strings.Split(top, "|") {
					if matches(t, alt, tests) == 0 {
						t.Errorf("step %q (line %d): -run alternative %q matches no test in %v", step.name, step.line, alt, dirs)
					}
				}
				if strings.HasPrefix(step.name, "Alloc budgets") {
					allocRun, allocDirs = run, dirs
				}
			}
			if fuzz, ok := flagValue(cmd.args, "-fuzz"); ok && matches(t, fuzz, fuzzes) != 1 {
				t.Errorf("step %q (line %d): -fuzz %q names %d fuzz targets in %v, want 1", step.name, step.line, fuzz, matches(t, fuzz, fuzzes), dirs)
			}
		}
	}
	if allocRun == "" {
		t.Fatal(`no "Alloc budgets" step with a -run pattern`)
	}
	listed := regexp.MustCompile(allocRun)
	inStep := map[string]bool{}
	for _, dir := range allocDirs {
		inStep[filepath.Clean(dir)] = true
	}
	module := goCommand{dir: ".", args: []string{"./..."}}
	for _, dir := range packagesOf(t, "module", module) {
		tests, _ := testFuncs(t, dir)
		for _, name := range tests {
			if !allocBudgetName.MatchString(name) {
				continue
			}
			if !listed.MatchString(name) || !inStep[filepath.Clean(dir)] {
				t.Errorf("%s (%s) is an alloc budget the \"Alloc budgets\" step does not run", name, dir)
			}
		}
	}
}
