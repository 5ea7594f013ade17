package repro

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The /*NOTREACHED*/ check. A terminal control-transfer operation
// (CallContinuation, Block, ThreadSyscallReturn, every substrate path that
// ends in one) sets the processor's next action and returns to the
// dispatch trampoline, so nothing of its caller may run after it: each
// call must be followed by return or sit in tail position (the last
// statement of its function, or of a branch of an if, switch or select
// that is). A function is terminal when its doc comment carries the
// sentence "Terminal."; the set is kept transitively closed by also
// flagging any unmarked named function whose last statement is a terminal
// call. The run-time latch in core catches what this cannot see: terminal
// calls made through function values.

// terminalMarker finds the doc-comment sentence that marks a function
// terminal.
var terminalMarker = regexp.MustCompile(`(^|\s)Terminal\.(\s|$)`)

// typedPkg is one type-checked package of the module.
type typedPkg struct {
	files []*ast.File
	info  *types.Info
}

// moduleLoader parses and type-checks the module's packages from source,
// each after the module packages it imports; the standard library comes
// from the compiler's export data.
type moduleLoader struct {
	fset   *token.FileSet
	root   string // module root directory
	module string // module path
	std    types.Importer
	done   map[string]*types.Package
	pkgs   []*typedPkg
}

func newModuleLoader(root, module string) *moduleLoader {
	fset := token.NewFileSet()
	return &moduleLoader{
		fset:   fset,
		root:   root,
		module: module,
		std:    importer.ForCompiler(fset, "gc", nil),
		done:   map[string]*types.Package{},
	}
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	return l.load(path)
}

// load type-checks the package at import path (non-test files only).
func (l *moduleLoader) load(path string) (*types.Package, error) {
	if p, ok := l.done[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/"))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.done[path] = pkg
	l.pkgs = append(l.pkgs, &typedPkg{files: files, info: info})
	return pkg, nil
}

// loadModule type-checks every package of the module rooted at root,
// skipping testdata, hidden directories and nested modules.
func loadModule(root, module string) (*moduleLoader, error) {
	l := newModuleLoader(root, module)
	var paths []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root {
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			rel, _ := filepath.Rel(root, filepath.Dir(p))
			ip := module
			if rel != "." {
				ip += "/" + filepath.ToSlash(rel)
			}
			if len(paths) == 0 || paths[len(paths)-1] != ip {
				paths = append(paths, ip)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			return nil, fmt.Errorf("%s: %v", p, err)
		}
	}
	return l, nil
}

// notReached checks the loaded packages and returns one diagnostic per
// violation, as "file:line: message" with file relative to the root.
func (l *moduleLoader) notReached() []string {
	terminal := map[*types.Func]bool{}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil && terminalMarker.MatchString(fd.Doc.Text()) {
					terminal[p.info.Defs[fd.Name].(*types.Func)] = true
				}
			}
		}
	}
	var diags []string
	for _, p := range l.pkgs {
		c := &notReachedChecker{l: l, info: p.info, terminal: terminal}
		for _, f := range p.files {
			c.file(f)
		}
		diags = append(diags, c.diags...)
	}
	sort.Strings(diags)
	return diags
}

type notReachedChecker struct {
	l        *moduleLoader
	info     *types.Info
	terminal map[*types.Func]bool
	diags    []string
}

func (c *notReachedChecker) report(n ast.Node, format string, args ...any) {
	pos := c.l.fset.Position(n.Pos())
	rel, err := filepath.Rel(c.l.root, pos.Filename)
	if err != nil {
		rel = pos.Filename
	}
	c.diags = append(c.diags, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, fmt.Sprintf(format, args...)))
}

// terminalCall returns the terminal function s calls, or nil.
func (c *notReachedChecker) terminalCall(s ast.Stmt) *types.Func {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return nil
	}
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	fn, ok := c.info.Uses[id].(*types.Func)
	if !ok || !c.terminal[fn.Origin()] {
		return nil
	}
	return fn
}

func (c *notReachedChecker) file(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body == nil {
				return true
			}
			c.block(n.Body.List, true)
			if k := len(n.Body.List); k > 0 && (n.Doc == nil || !terminalMarker.MatchString(n.Doc.Text())) {
				if fn := c.terminalCall(n.Body.List[k-1]); fn != nil {
					c.report(n.Name, "%s ends in terminal %s but is not marked Terminal.", n.Name.Name, fn.Name())
				}
			}
		case *ast.FuncLit:
			c.block(n.Body.List, true)
		}
		return true
	})
}

// block checks a statement list; tail reports whether falling off its end
// leaves the enclosing function.
func (c *notReachedChecker) block(list []ast.Stmt, tail bool) {
	for i, s := range list {
		var next ast.Stmt
		if i+1 < len(list) {
			next = list[i+1]
		}
		c.stmt(s, next, tail && next == nil)
	}
}

func (c *notReachedChecker) stmt(s, next ast.Stmt, tail bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if fn := c.terminalCall(s); fn != nil && !tail {
			if _, ok := next.(*ast.ReturnStmt); !ok {
				c.report(s, "call to terminal %s is not followed by return", fn.Name())
			}
		}
	case *ast.LabeledStmt:
		c.stmt(s.Stmt, next, tail)
	case *ast.BlockStmt:
		c.block(s.List, tail)
	case *ast.IfStmt:
		c.block(s.Body.List, tail)
		if s.Else != nil {
			c.stmt(s.Else, nil, tail)
		}
	case *ast.SwitchStmt:
		c.clauses(s.Body, tail)
	case *ast.TypeSwitchStmt:
		c.clauses(s.Body, tail)
	case *ast.SelectStmt:
		c.clauses(s.Body, tail)
	case *ast.ForStmt:
		c.block(s.Body.List, false)
	case *ast.RangeStmt:
		c.block(s.Body.List, false)
	}
}

func (c *notReachedChecker) clauses(body *ast.BlockStmt, tail bool) {
	for _, cl := range body.List {
		switch cl := cl.(type) {
		case *ast.CaseClause:
			c.block(cl.Body, tail)
		case *ast.CommClause:
			c.block(cl.Body, tail)
		}
	}
}

// TestNotReached runs the check over every non-test package of the module.
func TestNotReached(t *testing.T) {
	l, err := loadModule(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	if len(l.pkgs) < 20 {
		t.Fatalf("loaded only %d packages", len(l.pkgs))
	}
	for _, d := range l.notReached() {
		t.Error(d)
	}
}

// TestNotReachedFlagsFixture is the check's negative test: the fixture
// package holds one violation of each rule (marked "// want: text" on its
// line) next to correct uses that must pass.
func TestNotReachedFlagsFixture(t *testing.T) {
	root := filepath.Join("testdata", "notreached")
	l := newModuleLoader(root, "fixture")
	if _, err := l.load("fixture"); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, f := range l.pkgs[0].files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if text, ok := strings.CutPrefix(cm.Text, "// want: "); ok {
					pos := l.fset.Position(cm.Pos())
					want[fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)] = text
				}
			}
		}
	}
	if len(want) < 2 {
		t.Fatalf("fixture has %d expectations", len(want))
	}
	for _, d := range l.notReached() {
		at, msg, _ := strings.Cut(d, ": ")
		text, ok := want[at]
		if !ok {
			t.Errorf("unexpected diagnostic %s", d)
			continue
		}
		if !strings.Contains(msg, text) {
			t.Errorf("%s: got %q, want it to contain %q", at, msg, text)
		}
		delete(want, at)
	}
	for at, text := range want {
		t.Errorf("%s: violation %q not flagged", at, text)
	}
}
