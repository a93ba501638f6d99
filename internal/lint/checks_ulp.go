package lint

import (
	"go/ast"
	"strings"
)

// checkULPBound flags calls to ULP-comparison helpers (anything whose
// name mentions ULP) in non-test library code. A ULP predicate is a
// relaxed equality: it accepts results that differ from the reference,
// which is exactly what the float64 kernels' bit-identity contract
// forbids. A legitimate use — a reduced-precision path with a documented
// accuracy bound, a bench diagnostic — must carry a //lint:ignore
// ulp-bound annotation stating which contract licenses the relaxation.
// internal/tensor itself is exempt as the place such helpers would be
// defined, mirroring internal/atomicfile under the atomicwrite check.
func checkULPBound() *Check {
	const name = "ulp-bound"
	return &Check{
		Name: name,
		Doc: "flag ULP-tolerance comparisons outside tests and internal/tensor; " +
			"a ULP bound relaxes the bit-identity contract (DESIGN.md §13) and " +
			"each site must annotate which accuracy contract licenses it",
		Run: func(_ *Program, pkg *Package) []Diagnostic {
			// internal/tensor defines the helpers; internal/lint defines
			// this analyzer (whose own constructor mentions ULP).
			if pathHasSeg(pkg.ImportPath, "internal/tensor") || pathHasSeg(pkg.ImportPath, "internal/lint") {
				return nil
			}
			var out []Diagnostic
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					var fnName string
					switch fn := call.Fun.(type) {
					case *ast.Ident:
						fnName = fn.Name
					case *ast.SelectorExpr:
						fnName = fn.Sel.Name
					default:
						return true
					}
					if !strings.Contains(fnName, "ULP") {
						return true
					}
					out = append(out, diag(pkg, name, call.Pos(),
						"%s relaxes bit-identity to a ULP bound: annotate the accuracy contract that licenses it", fnName))
					return true
				})
			}
			return out
		},
	}
}
