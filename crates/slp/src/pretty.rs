//! Pretty-printing in the paper's notation.

use crate::ir::Slp;
use std::fmt;

impl fmt::Display for Slp {
    /// Renders e.g.
    ///
    /// ```text
    /// v0 ← a ⊕ b;
    /// v1 ← ⊕(c, d, e);
    /// ret(v0, v1)
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for instr in &self.instrs {
            match instr.args.as_slice() {
                [single] => writeln!(f, "v{} ← {};", instr.dst, single)?,
                [a, b] => writeln!(f, "v{} ← {} ⊕ {};", instr.dst, a, b)?,
                many => {
                    write!(f, "v{} ← ⊕(", instr.dst)?;
                    for (k, t) in many.iter().enumerate() {
                        if k > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{t}")?;
                    }
                    writeln!(f, ");")?;
                }
            }
        }
        write!(f, "ret(")?;
        for (k, t) in self.outputs.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use crate::ir::{Instr, Slp};
    use crate::term::Term::{Const, Var};

    #[test]
    fn renders_paper_notation() {
        let p = Slp::new(
            5,
            vec![
                Instr::new(0, vec![Const(0), Const(1)]),
                Instr::new(1, vec![Const(2), Const(3), Const(4)]),
                Instr::new(2, vec![Var(1)]),
            ],
            vec![Var(0), Var(2)],
        )
        .unwrap();
        let text = p.to_string();
        assert_eq!(text, "v0 ← a ⊕ b;\nv1 ← ⊕(c, d, e);\nv2 ← v1;\nret(v0, v2)");
    }
}
