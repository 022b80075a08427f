//! The shipped examples, run as tests so they cannot rot: quickstart
//! asserts that DAC leaves the kernel's output bit-identical, and the
//! compiler explorer decouples each of its demo kernels. The documents
//! that quote numbers are checked against what produces them.

#[path = "../examples/quickstart.rs"]
mod quickstart;

// Its `main` reads the process arguments, which here are the harness's;
// the test calls `run` with none instead.
#[allow(dead_code)]
#[path = "../examples/compiler_explorer.rs"]
mod compiler_explorer;

#[path = "support/pin.rs"]
mod pin;

/// Where the measured values of each row of EXPERIMENTS.md's "Headline
/// comparison" table are, in row order: the section of
/// `results/figures.txt`, the prefix of the line in it, and the word the
/// values follow on that line.
const HEADLINE: [(&str, &str, &str); 15] = [
    ("Table 2", "->", "->"),
    ("Figure 16", "GEOMEAN all", "DAC"),
    ("Figure 16", "GEOMEAN memory", "DAC"),
    ("Figure 16", "GEOMEAN compute", "DAC"),
    ("Figure 16", "GEOMEAN compute", "CAE"),
    ("Figure 16", "GEOMEAN memory", "CAE"),
    ("Figure 16", "GEOMEAN memory", "MTA"),
    ("Figure 6", "MEAN", "affine"),
    ("Figure 17", "MEAN", "ratio"),
    ("Figure 17", "MEAN", "share"),
    ("Figure 18", "GEOMEAN", "CAE"),
    ("Figure 18", "GEOMEAN", "DAC"),
    ("Figure 19", "MEAN", "MEAN"),
    ("Figure 21", "GEOMEAN", "total"),
    ("Section 4.8", "total", "die"),
];

/// The numbers in `text`, as written (`1.24x` → `1.24`, `17.2%` → `17.2`).
fn numbers(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_ascii_digit() && c != '.')
        .map(|t| t.trim_matches('.'))
        .filter(|t| !t.is_empty())
        .map(String::from)
        .collect()
}

/// The values that follow `word` on the line of `figures` that `section`
/// and `prefix` name, the paper's values (in parentheses) cut out.
fn figure_values(figures: &str, (section, prefix, word): (&str, &str, &str)) -> Vec<String> {
    let line = figures
        .split("\n=== ")
        .find(|s| s.starts_with(section))
        .and_then(|s| s.lines().find(|l| l.starts_with(prefix)))
        .unwrap_or_else(|| panic!("no {prefix:?} line in {section}"));
    let measured: String = line
        .split('(')
        .map(|part| part.split_once(')').map_or(part, |(_, rest)| rest))
        .collect();
    let (_, after) = measured
        .split_once(word)
        .unwrap_or_else(|| panic!("{word:?} not on {line:?}"));
    numbers(after)
}

#[test]
fn quickstart_runs() {
    quickstart::main();
}

#[test]
fn compiler_explorer_runs_its_demos() {
    compiler_explorer::run(&[]);
}

/// README's quickstart block is what the example prints, and every
/// measured value in EXPERIMENTS.md's headline table appears, at the
/// precision shown, among the first values on its line of
/// `results/figures.txt`, as does every line of the plain code blocks of
/// its Fig. 16 section. Fails once, naming every stale number.
#[test]
fn documents_quote_the_numbers_they_report() {
    let mut stale = Vec::new();
    let readme = std::fs::read_to_string(pin::repo_path("README.md")).unwrap();
    let (_, after) = readme
        .split_once("\n## Quickstart")
        .expect("README quickstart");
    let block = after
        .split("```")
        .skip(1)
        .step_by(2)
        .find(|b| b.starts_with('\n'))
        .expect("README's quickstart output block");
    let printed = quickstart::run();
    if block
        .trim_matches('\n')
        .lines()
        .ne(printed.iter().map(String::as_str))
    {
        stale.push(format!(
            "README.md quickstart block; the example prints:\n{}",
            printed.join("\n")
        ));
    }

    let doc = std::fs::read_to_string(pin::repo_path("EXPERIMENTS.md")).unwrap();
    let figures = std::fs::read_to_string(pin::repo_path("results/figures.txt")).unwrap();
    let (_, table) = doc.split_once("## Headline comparison").unwrap();
    let rows: Vec<Vec<&str>> = table
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2)
        .map(|l| l.split('|').map(str::trim).collect())
        .collect();
    assert_eq!(
        rows.len(),
        HEADLINE.len(),
        "one figures line per headline row"
    );
    for (cells, place) in rows.iter().zip(HEADLINE) {
        let quoted = numbers(cells[3]);
        let values = figure_values(&figures, place);
        let values = &values[..quoted.len().min(values.len())];
        for q in &quoted {
            let digits = q.split_once('.').map_or(0, |(_, d)| d.len());
            let found = values.iter().any(|v| {
                let v: f64 = v.parse().unwrap();
                format!("{v:.digits$}") == *q
            });
            if !found {
                stale.push(format!(
                    "EXPERIMENTS.md \"{}\" quotes {q}; results/figures.txt has {values:?}",
                    cells[1]
                ));
            }
        }
    }

    // The Fig. 16 section quotes the class-mean ledger lines verbatim.
    let (_, section) = doc.split_once("\n### Figure 16").unwrap();
    let section = section.split("\n### ").next().unwrap();
    let printed = figures
        .split("\n=== ")
        .find(|s| s.starts_with("Figure 16"))
        .unwrap();
    let quoted: Vec<&str> = section
        .split("\n```")
        .skip(1)
        .step_by(2)
        .filter_map(|b| b.strip_prefix('\n'))
        .flat_map(str::lines)
        .collect();
    assert!(
        !quoted.is_empty(),
        "EXPERIMENTS.md Fig. 16 quotes no ledger"
    );
    for line in quoted {
        if !printed.lines().any(|l| l == line) {
            stale.push(format!(
                "EXPERIMENTS.md Fig. 16 quotes {line:?}, not in results/figures.txt"
            ));
        }
    }
    assert!(
        stale.is_empty(),
        "stale document numbers:\n{}",
        stale.join("\n")
    );
}
