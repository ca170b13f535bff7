package xsp_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The unused-API lint. It type-checks every non-test file of a module —
// cmd/, examples/ and bench/ count as callers — and reports two kinds of
// exported declaration under internal/:
//
//   - unused: no reference outside the name's own declaration;
//   - never set: a struct field that non-test code reads but never writes.
//
// It works out four exemptions itself: methods whose name belongs to an
// interface type declared in the module or in a standard package the
// module imports; fields with a json tag; packages that only test files
// import; and the fields of struct types written as unkeyed literals.
// What it still finds must be listed, with a reason, in
// testdata/unused_api_allowlist.txt, and that list may only shrink.

const unusedAPIAllowlist = "testdata/unused_api_allowlist.txt"

// apiFinding is one lint result: name is pkg.Name, pkg.Type.Method or
// pkg.Type.Field with pkg the package path below internal/.
type apiFinding struct {
	name string
	kind string // "unused" or "never set"
	pos  token.Position
}

type lintPkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// lintModule is a module's non-test files, type-checked.
type lintModule struct {
	root        string
	modPath     string
	fset        *token.FileSet
	pkgs        map[string]*lintPkg
	paths       []string                  // import paths of pkgs, sorted
	prodImports map[string]bool           // import paths named by non-test files
	testImports map[string]bool           // import paths named by test files
	stdUsed     map[string]*types.Package // standard packages the module imports
}

var lintModules = map[string]*lintModule{}

// loadLintModule parses and type-checks the module rooted at root, once.
func loadLintModule(root string) (*lintModule, error) {
	if m := lintModules[root]; m != nil {
		return m, nil
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkgs := map[string]*lintPkg{}
	prodImports := map[string]bool{}
	testImports := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.Dir(path)
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		if strings.HasSuffix(name, "_test.go") {
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, s := range f.Imports {
				testImports[strings.Trim(s.Path.Value, `"`)] = true
			}
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments) // benchapi.go's header lists fields
		if err != nil {
			return err
		}
		for _, s := range f.Imports {
			prodImports[strings.Trim(s.Path.Value, `"`)] = true
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		ip := modPath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		if pkgs[ip] == nil {
			pkgs[ip] = &lintPkg{path: ip}
		}
		pkgs[ip].files = append(pkgs[ip].files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	std := importer.Default()
	stdUsed := map[string]*types.Package{}
	var check func(p *lintPkg) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := pkgs[path]; ok {
			return check(p)
		}
		sp, err := std.Import(path)
		if err == nil {
			stdUsed[path] = sp
		}
		return sp, err
	})
	check = func(p *lintPkg) (*types.Package, error) {
		if p.types != nil {
			return p.types, nil
		}
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.path, fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.types = tp
		return tp, nil
	}
	paths := make([]string, 0, len(pkgs))
	for ip := range pkgs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := check(pkgs[ip]); err != nil {
			return nil, err
		}
	}
	m := &lintModule{root, modPath, fset, pkgs, paths, prodImports, testImports, stdUsed}
	lintModules[root] = m
	return m, nil
}

// findUnusedAPI runs the lint over the module rooted at root.
func findUnusedAPI(root string) ([]apiFinding, error) {
	m, err := loadLintModule(root)
	if err != nil {
		return nil, err
	}
	fset, pkgs, paths := m.fset, m.pkgs, m.paths

	// Method names any interface type carries: those methods may be
	// reached by dynamic dispatch, which leaves no reference to them.
	ifaceMethods := map[string]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	for _, p := range pkgs {
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}
	for _, sp := range m.stdUsed {
		for _, n := range sp.Scope().Names() {
			if tn, ok := sp.Scope().Lookup(n).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}

	lu := &lintUses{referenced: map[types.Object]bool{}, written: map[types.Object]bool{}}
	for _, ip := range paths {
		p := pkgs[ip]
		for _, f := range p.files {
			lu.file(p.info, f)
		}
	}

	internal := m.modPath + "/internal/"
	var out []apiFinding
	for _, ip := range paths {
		p := pkgs[ip]
		if !strings.HasPrefix(ip, internal) || (!m.prodImports[ip] && m.testImports[ip]) {
			continue
		}
		prefix := strings.TrimPrefix(ip, internal) + "."
		report := func(o types.Object, name, kind string) {
			out = append(out, apiFinding{name: prefix + name, kind: kind, pos: fset.Position(o.Pos())})
		}
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			o := scope.Lookup(n)
			if o.Exported() && !lu.referenced[o] {
				report(o, n, "unused")
			}
			tn, ok := o.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !ifaceMethods[m.Name()] && !lu.referenced[m] {
					report(m, n+"."+m.Name(), "unused")
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				fv := st.Field(i)
				if !fv.Exported() || fv.Embedded() || reflect.StructTag(st.Tag(i)).Get("json") != "" {
					continue
				}
				switch {
				case !lu.referenced[fv]:
					report(fv, n+"."+fv.Name(), "unused")
				case !lu.written[fv]:
					report(fv, n+"."+fv.Name(), "never set")
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// The compat quarantine. The API only the frozen benchmark (bench/) calls
// lives in one benchapi.go file per package: every exported name declared
// there is compat, and so is every field that file's header comment lists
// on a tab-indented "Type.Field" line (a field cannot leave its struct's
// declaration). findCompatLeaks returns the compat names and every place a
// non-test file outside bench/ and the benchapi.go files names one.
const compatFile = "benchapi.go"

var compatFieldLine = regexp.MustCompile(`^//\t([A-Z]\w*)\.([A-Z]\w*)\b`)

func findCompatLeaks(root string) (compat []string, leaks []apiFinding, err error) {
	m, err := loadLintModule(root)
	if err != nil {
		return nil, nil, err
	}
	names := map[types.Object]string{}
	for _, ip := range m.paths {
		p := m.pkgs[ip]
		prefix := ip[strings.LastIndex(ip, "/")+1:] + "."
		for _, f := range p.files {
			if filepath.Base(m.fset.Position(f.Pos()).Filename) != compatFile {
				continue
			}
			add := func(id *ast.Ident, name string) {
				if id.IsExported() {
					names[p.info.Defs[id]] = prefix + name
				}
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name, d.Name.Name)
						break
					}
					recv := derefType(p.info.Defs[d.Name].Type().(*types.Signature).Recv().Type()).(*types.Named).Obj()
					if recv.Exported() {
						add(d.Name, recv.Name()+"."+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s.Name.Name)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(n, n.Name)
							}
						}
					}
				}
			}
			for _, cg := range f.Comments {
				if cg.End() >= f.Package {
					break
				}
				for _, c := range cg.List {
					sm := compatFieldLine.FindStringSubmatch(c.Text)
					if sm == nil {
						continue
					}
					var field types.Object
					if tn, ok := p.types.Scope().Lookup(sm[1]).(*types.TypeName); ok {
						if st, ok := tn.Type().Underlying().(*types.Struct); ok {
							for i := 0; i < st.NumFields(); i++ {
								if st.Field(i).Name() == sm[2] {
									field = st.Field(i)
								}
							}
						}
					}
					if field == nil {
						return nil, nil, fmt.Errorf("%s: lists %s.%s, which is not a field of the package", m.fset.Position(c.Pos()), sm[1], sm[2])
					}
					names[field] = prefix + sm[1] + "." + sm[2]
				}
			}
		}
	}
	for _, name := range names {
		compat = append(compat, name)
	}
	sort.Strings(compat)

	for _, ip := range m.paths {
		p := m.pkgs[ip]
		for _, f := range p.files {
			file := m.fset.Position(f.Pos()).Filename
			rel, err := filepath.Rel(m.root, file)
			if err != nil {
				return nil, nil, err
			}
			if rel = filepath.ToSlash(rel); strings.HasPrefix(rel, "bench/") || filepath.Base(rel) == compatFile {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if name, ok := names[lintOrigin(p.info.Uses[id])]; ok {
						pos := m.fset.Position(id.Pos())
						pos.Filename = rel
						leaks = append(leaks, apiFinding{name: name, pos: pos})
					}
				}
				return true
			})
		}
	}
	return compat, leaks, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// lintUses records, over every non-test file, which objects are referenced
// outside their own declaration and which struct fields are written.
type lintUses struct {
	info       *types.Info
	referenced map[types.Object]bool
	written    map[types.Object]bool
}

func lintOrigin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

func (lu *lintUses) file(info *types.Info, f *ast.File) {
	lu.info = info
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			// The receiver names the method's own type: not a reference.
			self := map[types.Object]bool{info.Defs[d.Name]: true}
			lu.walk(d.Type, self)
			if d.Body != nil {
				lu.walk(d.Body, self)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				self := map[types.Object]bool{}
				switch s := s.(type) {
				case *ast.TypeSpec:
					self[info.Defs[s.Name]] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						self[info.Defs[n]] = true
					}
				}
				lu.walk(s, self)
			}
		}
	}
}

func (lu *lintUses) walk(n ast.Node, self map[types.Object]bool) {
	info := lu.info
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if o := info.Uses[n]; o != nil {
				if o = lintOrigin(o); !self[o] {
					lu.referenced[o] = true
				}
			}
		case *ast.CompositeLit:
			st, ok := derefType(info.TypeOf(n)).Underlying().(*types.Struct)
			if !ok || len(n.Elts) == 0 {
				break
			}
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
				for _, e := range n.Elts {
					if k, ok := e.(*ast.KeyValueExpr).Key.(*ast.Ident); ok {
						if o := info.Uses[k]; o != nil {
							lu.written[lintOrigin(o)] = true
						}
					}
				}
				break
			}
			for i := 0; i < st.NumFields(); i++ {
				fv := lintOrigin(st.Field(i))
				lu.referenced[fv], lu.written[fv] = true, true
			}
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				lu.write(e)
			}
		case *ast.IncDecStmt:
			lu.write(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				lu.write(n.Key)
				lu.write(n.Value)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				lu.write(n.X)
			}
		case *ast.CallExpr:
			// A pointer-receiver method called on a field value takes the
			// field's address.
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
					if _, ptrRecv := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptrRecv {
						if _, isPtr := info.TypeOf(sel.X).Underlying().(*types.Pointer); !isPtr {
							lu.write(sel.X)
						}
					}
				}
			}
		}
		return true
	})
}

// write marks the fields an assignment to e writes: the selected field and,
// while the base is a value of the same variable, its enclosing fields.
func (lu *lintUses) write(e ast.Expr) {
	for e != nil {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			s := lu.info.Selections[x]
			if s == nil || s.Kind() != types.FieldVal {
				return
			}
			lu.written[lintOrigin(s.Obj())] = true
			if _, isPtr := lu.info.TypeOf(x.X).Underlying().(*types.Pointer); isPtr {
				return
			}
			e = x.X
		case *ast.IndexExpr:
			if _, isArray := lu.info.TypeOf(x.X).Underlying().(*types.Array); !isArray {
				return
			}
			e = x.X
		default:
			return
		}
	}
}

func derefType(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// readAllowlist parses lines of the form "pkg.Name<TAB>reason"; blank lines
// and lines starting with # are skipped.
func readAllowlist(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for ln := 1; sc.Scan(); ln++ {
		line := sc.Text()
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, "\t")
		name, reason = strings.TrimSpace(name), strings.TrimSpace(reason)
		if reason == "" {
			t.Errorf("%s:%d: %s has no reason", path, ln, name)
		}
		if _, dup := allow[name]; dup {
			t.Errorf("%s:%d: %s listed twice", path, ln, name)
		}
		allow[name] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// TestUnusedAPI holds the module to its allowlist: every finding is listed,
// and every listed name is still a finding.
func TestUnusedAPI(t *testing.T) {
	found, err := findUnusedAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	allow := readAllowlist(t, unusedAPIAllowlist)
	seen := map[string]bool{}
	for _, f := range found {
		seen[f.name] = true
		if _, ok := allow[f.name]; !ok {
			t.Errorf("%s: exported %s is %s by non-test code: delete it, or list it with a reason in %s", f.pos, f.name, f.kind, unusedAPIAllowlist)
		}
	}
	for name := range allow {
		if !seen[name] {
			t.Errorf("%s: stale entry %s: the lint no longer finds it, so delete the line", unusedAPIAllowlist, name)
		}
	}
}

// TestUnusedAPIFixture pins what the lint flags and exempts on a small module.
func TestUnusedAPIFixture(t *testing.T) {
	found, err := findUnusedAPI("testdata/unusedapi")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, f.name+": "+f.kind)
	}
	want := []string{
		"lib.Box.Drop: unused",     // a method nothing calls
		"lib.Box.Limit: never set", // read by the product, set only by a test
		"lib.Orphan: unused",       // a compat function nothing calls, bench/ included
		"lib.Unused: unused",       // a function nothing calls
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestCompatQuarantine keeps product code off the API only bench/ calls,
// and pins what that API is: a name leaves this list by leaving the
// product, or by bench/ no longer calling it.
func TestCompatQuarantine(t *testing.T) {
	compat, leaks, err := findCompatLeaks(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range leaks {
		t.Errorf("%s: names %s, which only bench/ may call: it is declared, or listed as a field, in a %s", l.pos, l.name, compatFile)
	}
	want := []string{
		"core.NewTenantSet",
		"core.OpenTenantStream",
		"core.StreamOptions.Isolated",
		"core.TenantSet",
		"core.TenantSet.Keys",
		"core.TenantSet.Stream",
		"core.TenantSetOptions",
		"core.TenantStream",
		"core.TenantStream.Correlator",
		"core.TenantStream.Err",
		"core.TenantStream.IngestLogged",
		"core.TenantStream.Publish",
		"core.TenantStream.Recovery",
		"core.TenantStream.Store",
		"trace.AsyncTapStats.Dropped",
		"trace.DurableSink",
		"trace.NewServer",
		"trace.Server.SetTenantInit",
		"trace.Server.Tenant",
		"trace.Server.Tenants",
		"trace.ServerTenant.Collector",
		"trace.ServerTenant.SetDurable",
		"trace.ServerTenant.SetLoad",
		"trace.ServerTenant.SetTap",
		"trace.ServerTenant.SetTapAsync",
		"trace.ShedBlock",
		"trace.TapOptions.Policy",
	}
	if !reflect.DeepEqual(compat, want) {
		t.Errorf("compat API:\n  %s\nwant:\n  %s", strings.Join(compat, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestCompatQuarantineFixture pins the check on the fixture module: a
// product file naming a compat function or a listed field is a leak, a
// bench/ file naming them is not, and a compat name nothing calls is the
// unused lint's (TestUnusedAPIFixture).
func TestCompatQuarantineFixture(t *testing.T) {
	compat, leaks, err := findCompatLeaks("testdata/unusedapi")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, l := range leaks {
		got = append(got, l.pos.Filename+": "+l.name)
	}
	wantCompat := []string{"lib.Compat", "lib.Opts.Legacy", "lib.Orphan"}
	wantLeaks := []string{
		"cmd/app/main.go: lib.Compat",          // a product caller
		"internal/lib/lib.go: lib.Opts.Legacy", // product code reading a listed field
	}
	if !reflect.DeepEqual(compat, wantCompat) || !reflect.DeepEqual(got, wantLeaks) {
		t.Errorf("compat %v, leaks:\n  %s\nwant compat %v, leaks:\n  %s", compat, strings.Join(got, "\n  "), wantCompat, strings.Join(wantLeaks, "\n  "))
	}
}

// TestCIRunPatternsNameTests fails when a -run or -fuzz pattern in the CI
// workflow names a test or fuzz target that the package it targets does not
// declare: such a step matches nothing and passes silently.
func TestCIRunPatternsNameTests(t *testing.T) {
	b, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	goTest := regexp.MustCompile(`go test ([^\n]*)`)
	pattern := regexp.MustCompile(`-(run|fuzz)='([^']*)'`)
	checked := 0
	for _, m := range goTest.FindAllStringSubmatch(string(b), -1) {
		var dirs []string
		for _, arg := range strings.Fields(m[1]) {
			if strings.HasPrefix(arg, "./") && !strings.Contains(arg, "...") {
				dirs = append(dirs, arg)
			}
		}
		for _, p := range pattern.FindAllStringSubmatch(m[1], -1) {
			top, sub, _ := strings.Cut(p[2], "/")
			top = strings.TrimSuffix(strings.TrimPrefix(top, "^"), "$")
			if top == "" {
				continue // -run='^$': run no tests, on purpose
			}
			if len(dirs) == 0 {
				t.Errorf("ci.yml: %q names tests but no package directory", m[0])
				continue
			}
			src := testSources(t, dirs)
			for _, name := range strings.Split(strings.Trim(top, "()"), "|") {
				checked++
				if !regexp.MustCompile(`(?m)^func ` + regexp.QuoteMeta(name) + `\(`).MatchString(src) {
					t.Errorf("ci.yml: -%s names %s, which %v does not declare", p[1], name, dirs)
				}
			}
			if sub = strings.TrimSuffix(strings.TrimPrefix(sub, "^"), "$"); sub != "" && !strings.Contains(src, `"`+sub+`"`) {
				t.Errorf("ci.yml: -%s names subtest %q, which %v does not mention", p[1], sub, dirs)
			}
		}
	}
	if checked == 0 {
		t.Fatal("ci.yml: no -run or -fuzz pattern found; the parser is out of date")
	}
}

// testSources concatenates the _test.go files of the given package dirs.
func testSources(t *testing.T, dirs []string) string {
	t.Helper()
	var sb strings.Builder
	for _, d := range dirs {
		files, err := filepath.Glob(filepath.Join(d, "*_test.go"))
		if err != nil || len(files) == 0 {
			t.Errorf("ci.yml: %s has no test files", d)
			continue
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(b)
		}
	}
	return sb.String()
}
