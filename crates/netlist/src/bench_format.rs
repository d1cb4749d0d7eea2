//! Reading and writing ISCAS `.bench` netlists.
//!
//! The `.bench` format is the lingua franca of the logic-locking literature:
//! `INPUT(x)` / `OUTPUT(y)` declarations followed by `sig = GATE(a, b, ...)`
//! assignments.  Locked benchmarks conventionally name key inputs with a
//! `keyinput` prefix; [`ParseOptions::key_prefix`] controls how such inputs
//! are classified.

use std::collections::HashMap;

use crate::{GateKind, Netlist, NetlistError, NodeId};

/// Options controlling `.bench` parsing.
#[derive(Clone, Debug)]
pub struct ParseOptions {
    /// Inputs whose name starts with this prefix (case-insensitive) are
    /// treated as key inputs.  Default: `"keyinput"`.
    pub key_prefix: String,
}

impl Default for ParseOptions {
    fn default() -> ParseOptions {
        ParseOptions {
            key_prefix: "keyinput".to_string(),
        }
    }
}

/// Parses a `.bench` document with default [`ParseOptions`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for malformed lines and
/// [`NetlistError::UnknownSignal`] for references to undefined signals.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";
/// let nl = netlist::bench_format::parse(text)?;
/// assert_eq!(nl.num_inputs(), 2);
/// assert_eq!(nl.evaluate(&[true, true], &[]), vec![true]);
/// # Ok(())
/// # }
/// ```
pub fn parse(text: &str) -> Result<Netlist, NetlistError> {
    parse_with(text, &ParseOptions::default())
}

/// Parses a `.bench` document with explicit options.
///
/// # Errors
///
/// See [`parse`].
pub fn parse_with(text: &str, options: &ParseOptions) -> Result<Netlist, NetlistError> {
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut defs: HashMap<String, (GateKind, Vec<String>)> = HashMap::new();
    let mut def_order: Vec<String> = Vec::new();
    let mut design_name = "bench".to_string();

    for (line_no, raw) in text.lines().enumerate() {
        let line_no = line_no + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = strip_directive(line, "INPUT") {
            inputs.push(rest.to_string());
        } else if let Some(rest) = strip_directive(line, "OUTPUT") {
            outputs.push(rest.to_string());
        } else if let Some(name) = line.strip_prefix(".model") {
            design_name = name.trim().to_string();
        } else if let Some(eq_pos) = line.find('=') {
            let target = line[..eq_pos].trim().to_string();
            let rhs = line[eq_pos + 1..].trim();
            let open = rhs.find('(').ok_or_else(|| NetlistError::Parse {
                line: line_no,
                message: format!("expected GATE(...) on right-hand side, got `{rhs}`"),
            })?;
            let close = rhs.rfind(')').ok_or_else(|| NetlistError::Parse {
                line: line_no,
                message: "missing closing parenthesis".to_string(),
            })?;
            let gate_name = rhs[..open].trim();
            let kind = GateKind::from_bench_name(gate_name).ok_or_else(|| NetlistError::Parse {
                line: line_no,
                message: format!("unknown gate `{gate_name}`"),
            })?;
            let args: Vec<String> = rhs[open + 1..close]
                .split(',')
                .map(|a| a.trim().to_string())
                .filter(|a| !a.is_empty())
                .collect();
            if !kind.arity_ok(args.len()) {
                return Err(NetlistError::Parse {
                    line: line_no,
                    message: format!("gate {kind} cannot take {} fanins", args.len()),
                });
            }
            if defs.insert(target.clone(), (kind, args)).is_some() {
                return Err(NetlistError::DuplicateName(target));
            }
            def_order.push(target);
        } else {
            return Err(NetlistError::Parse {
                line: line_no,
                message: format!("unrecognised line `{line}`"),
            });
        }
    }

    let mut nl = Netlist::new(design_name);
    let prefix = options.key_prefix.to_ascii_lowercase();
    for name in &inputs {
        if nl.lookup(name).is_some() {
            return Err(NetlistError::DuplicateName(name.clone()));
        }
        if name.to_ascii_lowercase().starts_with(&prefix) {
            nl.add_key_input(name.clone());
        } else {
            nl.add_input(name.clone());
        }
    }

    // Create gates in dependency order (the .bench format allows forward
    // references) via an iterative DFS.
    let mut created: HashMap<String, NodeId> = inputs
        .iter()
        .map(|n| (n.clone(), nl.lookup(n).expect("just added")))
        .collect();
    for root in &def_order {
        if created.contains_key(root) {
            continue;
        }
        // Stack of (signal, next fanin index to process).
        let mut stack: Vec<(String, usize)> = vec![(root.clone(), 0)];
        let mut on_stack: Vec<String> = vec![root.clone()];
        while let Some((signal, fanin_idx)) = stack.pop() {
            let (kind, args) = defs
                .get(&signal)
                .ok_or_else(|| NetlistError::UnknownSignal(signal.clone()))?
                .clone();
            if fanin_idx < args.len() {
                let dep = &args[fanin_idx];
                stack.push((signal.clone(), fanin_idx + 1));
                if !created.contains_key(dep) {
                    if !defs.contains_key(dep) {
                        return Err(NetlistError::UnknownSignal(dep.clone()));
                    }
                    if on_stack.contains(dep) {
                        return Err(NetlistError::Parse {
                            line: 0,
                            message: format!("combinational cycle through `{dep}`"),
                        });
                    }
                    on_stack.push(dep.clone());
                    stack.push((dep.clone(), 0));
                }
            } else {
                let fanins: Vec<NodeId> = args.iter().map(|a| created[a]).collect();
                let id = nl.add_gate(signal.clone(), kind, &fanins);
                created.insert(signal.clone(), id);
                on_stack.retain(|s| s != &signal);
            }
        }
    }

    for name in &outputs {
        let id = created
            .get(name)
            .copied()
            .ok_or_else(|| NetlistError::UnknownSignal(name.clone()))?;
        nl.add_output(name.clone(), id);
    }
    Ok(nl)
}

fn strip_directive<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let upper = line.to_ascii_uppercase();
    if !upper.starts_with(keyword) {
        return None;
    }
    let rest = line[keyword.len()..].trim();
    let rest = rest.strip_prefix('(')?;
    let rest = rest.strip_suffix(')')?;
    Some(rest.trim())
}

/// Serialises a netlist in `.bench` format.
///
/// Key inputs are written as ordinary `INPUT` declarations (their names carry
/// the key-input convention), so the output can be consumed by standard
/// logic-locking tooling.
pub fn write(nl: &Netlist) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {}\n", nl.summary()));
    for &id in nl.inputs() {
        out.push_str(&format!("INPUT({})\n", nl.node(id).name()));
    }
    for &id in nl.key_inputs() {
        out.push_str(&format!("INPUT({})\n", nl.node(id).name()));
    }
    for (name, _) in nl.outputs() {
        out.push_str(&format!("OUTPUT({name})\n"));
    }
    let mut aliases: Vec<(String, NodeId)> = Vec::new();
    for (id, node) in nl.iter() {
        if let crate::NodeKind::Gate { kind, fanins } = node.kind() {
            let args: Vec<&str> = fanins.iter().map(|f| nl.node(*f).name()).collect();
            out.push_str(&format!(
                "{} = {}({})\n",
                node.name(),
                kind,
                args.join(", ")
            ));
        }
        let _ = id;
    }
    // Outputs whose name differs from their driver need a BUF alias.
    for (name, id) in nl.outputs() {
        if nl.node(*id).name() != name && nl.lookup(name).is_none() {
            aliases.push((name.clone(), *id));
        }
    }
    for (name, id) in aliases {
        out.push_str(&format!("{} = BUF({})\n", name, nl.node(id).name()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const C17_LIKE: &str = "\
# a small example
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
";

    #[test]
    fn parse_c17() {
        let nl = parse(C17_LIKE).expect("parse");
        assert_eq!(nl.num_inputs(), 5);
        assert_eq!(nl.num_outputs(), 2);
        assert_eq!(nl.num_gates(), 6);
        // All-zero input: every first-level NAND is 1, so both outputs are 0.
        let outs = nl.evaluate(&[false; 5], &[]);
        assert_eq!(outs, vec![false, false]);
    }

    #[test]
    fn forward_references_are_resolved() {
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(t, b)\nt = NOT(a)\n";
        let nl = parse(text).expect("parse");
        assert_eq!(nl.evaluate(&[false, true], &[]), vec![true]);
        assert_eq!(nl.evaluate(&[true, true], &[]), vec![false]);
    }

    #[test]
    fn key_inputs_are_classified() {
        let text = "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\ny = XOR(a, keyinput0)\n";
        let nl = parse(text).expect("parse");
        assert_eq!(nl.num_inputs(), 1);
        assert_eq!(nl.num_key_inputs(), 1);
    }

    #[test]
    fn round_trip_preserves_function() {
        let nl = parse(C17_LIKE).expect("parse");
        let text = write(&nl);
        let reparsed = parse(&text).expect("reparse");
        assert_eq!(reparsed.num_inputs(), nl.num_inputs());
        assert_eq!(reparsed.num_outputs(), nl.num_outputs());
        for pattern in 0..32u64 {
            let bits = crate::sim::pattern_to_bits(pattern, 5);
            assert_eq!(nl.evaluate(&bits, &[]), reparsed.evaluate(&bits, &[]));
        }
    }

    #[test]
    fn unknown_signal_is_an_error() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n";
        assert!(matches!(parse(text), Err(NetlistError::UnknownSignal(_))));
    }

    #[test]
    fn unknown_gate_is_an_error() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n";
        assert!(matches!(parse(text), Err(NetlistError::Parse { .. })));
    }

    #[test]
    fn cycle_is_rejected() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n";
        assert!(parse(text).is_err());
    }

    #[test]
    fn duplicate_input_is_an_error() {
        let text = "INPUT(a)\nINPUT(b)\nINPUT(a)\nOUTPUT(b)\n";
        assert!(matches!(parse(text), Err(NetlistError::DuplicateName(name)) if name == "a"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# hello\nINPUT(a)  # trailing comment\nOUTPUT(a)\n";
        let nl = parse(text).expect("parse");
        assert_eq!(nl.num_inputs(), 1);
        assert_eq!(nl.num_outputs(), 1);
    }
}
