//! `domains` — availability under hierarchical failure domains.
//!
//! The domain counterpart of `sweep`: every requested rack count gets
//! one seeded zone → rack → node tree ([`TopoSpec`], labelled
//! `domains-<racks>`), and this binary plans each strategy *against
//! that tree* and runs [`Engine`]'s pipeline on it twice — with the
//! paper's per-node adversary and with the domain adversary that spends
//! its budget on whole racks/zones. A third column re-attacks after
//! `repair_domain_collisions`, measuring how much of the gap
//! topology-aware post-processing recovers for topology-oblivious
//! strategies. Summaries go to CSV; per-evaluation records — embedding
//! the exact topology, the strategy spec and the ladder's availability
//! certificate — stream to JSON-lines for `wcp-verify`.
//!
//! ```text
//! domains --racks 4,8,12 --rack-size 6 --strategies combo,ring,random,domain-spread
//! domains --zones 2 --jitter 1      # two-level tree, irregular racks
//! domains --quick                   # small smoke configuration (used by CI)
//! ```

use std::process::ExitCode;
use wcp_adversary::{AdversaryConfig, DomainAttacker, ScratchAdversary};
use wcp_core::engine::Attacker;
use wcp_core::{
    repair_domain_collisions, Engine, Parallelism, PlannerContext, StrategyKind, SystemParams,
    Topology,
};
use wcp_experiments::parse_list;
use wcp_sim::record::Record;
use wcp_sim::topo::TopoSpec;
use wcp_sim::{csv_safe, results_dir, Csv, JsonLines, Table};

fn usage() -> String {
    concat!(
        "usage: domains [--quick] [--racks LIST] [--rack-size N] [--zones N]\n",
        "               [--jitter N] [--b N] [--r N] [--s N] [--k N]\n",
        "               [--strategies LIST] [--seed N] [--csv PATH] [--json PATH]\n",
        "\n",
        "For every rack count, generates a seeded failure-domain topology\n",
        "(n = racks x rack-size nodes, optionally grouped into --zones and\n",
        "jittered by --jitter), plans each strategy against it, and attacks\n",
        "the placement with the per-node adversary, the domain adversary,\n",
        "and the domain adversary after collision repair. LISTs are comma\n",
        "separated; strategy specs as for `sweep` (combo, ring, group,\n",
        "adaptive, domain-spread, simple:<x>, random[:<seed>], ...).\n",
    )
    .to_string()
}

struct Cli {
    racks: Vec<u16>,
    rack_size: u16,
    zones: u16,
    jitter: u16,
    b: u64,
    r: u16,
    s: u16,
    k: u16,
    strategies: Vec<StrategyKind>,
    seed: u64,
    csv_path: Option<String>,
    json_path: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        racks: vec![4, 8, 12],
        rack_size: 6,
        zones: 0,
        jitter: 0,
        b: 600,
        r: 3,
        s: 2,
        k: 3,
        strategies: vec![
            StrategyKind::Combo,
            StrategyKind::Ring,
            StrategyKind::parse_spec("random").expect("builtin spec"),
            StrategyKind::DomainSpread,
        ],
        seed: 0,
        csv_path: None,
        json_path: None,
    };
    let mut quick = false;
    let mut have_grid = false;
    let mut have_k = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
            raw.parse()
                .map_err(|_| format!("invalid {flag} value '{raw}'"))
        }
        match arg.as_str() {
            "--quick" => quick = true,
            "--racks" => {
                cli.racks = parse_list("--racks", value("--racks")?)?;
                have_grid = true;
            }
            "--rack-size" => {
                cli.rack_size = parse_num("--rack-size", value("--rack-size")?)?;
                have_grid = true;
            }
            "--zones" => cli.zones = parse_num("--zones", value("--zones")?)?,
            "--jitter" => cli.jitter = parse_num("--jitter", value("--jitter")?)?,
            "--b" => {
                cli.b = parse_num("--b", value("--b")?)?;
                have_grid = true;
            }
            "--r" => cli.r = parse_num("--r", value("--r")?)?,
            "--s" => cli.s = parse_num("--s", value("--s")?)?,
            "--k" => {
                cli.k = parse_num("--k", value("--k")?)?;
                have_k = true;
            }
            "--seed" => cli.seed = parse_num("--seed", value("--seed")?)?,
            "--strategies" => {
                cli.strategies = value("--strategies")?
                    .split(',')
                    .filter(|part| !part.is_empty())
                    .map(|part| StrategyKind::parse_spec(part.trim()).map_err(|e| e.to_string()))
                    .collect::<Result<_, String>>()?;
            }
            "--csv" => cli.csv_path = Some(value("--csv")?.clone()),
            "--json" => cli.json_path = Some(value("--json")?.clone()),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag '{other}'\n\n{}", usage())),
        }
    }
    // The CI smoke configuration — only when no grid of the user's own
    // was given (explicit flags win, as in the sweep/churn binaries).
    if quick && !have_grid {
        cli.racks = vec![3, 4];
        cli.rack_size = 4;
        cli.b = 24;
        if !have_k {
            cli.k = 2;
        }
    }
    if cli.strategies.is_empty() {
        return Err(format!("no strategies selected\n\n{}", usage()));
    }
    if cli.rack_size == 0 || cli.racks.contains(&0) {
        return Err("rack counts and --rack-size must be positive".to_string());
    }
    Ok(cli)
}

/// One seeded failure-domain tree per rack count, in listed order:
/// fan-outs `[racks, rack-size]`, or `[zones, racks / zones, rack-size]`
/// with a zone level, jittered by `--jitter` and seeded by `--seed`.
fn trees(cli: &Cli) -> Result<Vec<(u16, Topology)>, String> {
    cli.racks
        .iter()
        .map(|&racks| {
            let fanouts = if cli.zones > 0 {
                if !racks.is_multiple_of(cli.zones) {
                    return Err(format!(
                        "zone fan-out {} does not divide rack count {racks}",
                        cli.zones
                    ));
                }
                vec![cli.zones, racks / cli.zones, cli.rack_size]
            } else {
                vec![racks, cli.rack_size]
            };
            let layout = TopoSpec {
                seed_index: cli.seed,
                ..TopoSpec::new(format!("domains-{racks}"), fanouts)
            }
            .with_jitter(cli.jitter)
            .generate();
            let topology = Topology::new(layout.n, layout.maps).map_err(|e| e.to_string())?;
            Ok((racks, topology))
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let header = [
        "racks",
        "zones",
        "n",
        "strategy",
        "node_avail",
        "node_exact",
        "domain_avail",
        "domain_exact",
        "repaired_domain_avail",
        "repair_moved",
    ];
    let mut table = Table::new(header.map(String::from).to_vec());
    table.title(format!(
        "domains: b={} r={} s={} k={} rack-size={} jitter={}",
        cli.b, cli.r, cli.s, cli.k, cli.rack_size, cli.jitter
    ));
    let csv_path = cli
        .csv_path
        .clone()
        .map_or_else(|| results_dir().join("domains.csv"), Into::into);
    let json_path = cli
        .json_path
        .clone()
        .map_or_else(|| results_dir().join("domains.jsonl"), Into::into);
    let mut csv = Csv::new(csv_path, &header);
    let mut jsonl = JsonLines::new(json_path);

    let trees = match trees(&cli) {
        Ok(trees) => trees,
        Err(msg) => {
            eprintln!("cannot build topologies: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut points = Vec::with_capacity(trees.len());
    for (racks, topo) in trees {
        let n = topo.num_nodes();
        match SystemParams::new(n, cli.b, cli.r, cli.s, cli.k) {
            Ok(params) => points.push((racks, topo, params)),
            Err(e) => {
                eprintln!("invalid system parameters at {racks} racks (n={n}): {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    for (racks, topo, params) in points {
        let n = params.n();
        let ctx = PlannerContext {
            topology: Some(topo.clone()),
        };
        // Both ladders fan out on WCP_THREADS; results are
        // bit-identical at any thread count (the CI determinism matrix
        // diffs this CSV).
        let adv = AdversaryConfig {
            parallelism: Parallelism::from_env(),
            ..AdversaryConfig::default()
        };
        let node_engine = Engine::with_attacker(params, ScratchAdversary::new(adv.clone()))
            .with_context(ctx.clone());
        let domain_attacker = DomainAttacker::with_config(topo.clone(), adv);
        let domain_engine =
            Engine::with_attacker(params, domain_attacker.clone()).with_context(ctx.clone());

        for kind in &cli.strategies {
            // Timings are zeroed before serialization: the JSONL must be
            // byte-identical across thread counts (the CI determinism
            // matrix diffs it), and wall-clock telemetry is not.
            let node = match node_engine.evaluate(kind) {
                Ok(mut report) => {
                    report.timings = wcp_core::engine::Timings::default();
                    report
                }
                Err(e) => {
                    eprintln!("{} at {racks} racks (node adversary): {e}", kind.label());
                    return ExitCode::FAILURE;
                }
            };
            let domain = match domain_engine.evaluate(kind) {
                Ok(mut report) => {
                    report.timings = wcp_core::engine::Timings::default();
                    report
                }
                Err(e) => {
                    eprintln!("{} at {racks} racks (domain adversary): {e}", kind.label());
                    return ExitCode::FAILURE;
                }
            };
            // The repair column: the same strategy's placement after
            // collision repair, under the domain adversary.
            let (repaired_avail, repair_moved, repaired_cert) = match kind
                .plan(&params, &ctx)
                .and_then(|strategy| strategy.build(&params))
                .and_then(|placement| repair_domain_collisions(&placement, &topo))
            {
                Ok((repaired, moved)) => {
                    let outcome = domain_attacker.attack(&repaired, cli.s, cli.k);
                    (cli.b - outcome.failed, moved, outcome.certificate)
                }
                Err(e) => {
                    eprintln!("{} at {racks} racks (repair): {e}", kind.label());
                    return ExitCode::FAILURE;
                }
            };
            // One record per adversary column; the topology rides along
            // so `wcp-verify` can rebuild placements and check domain
            // certificates against the exact failure-unit tree. The
            // repaired placement is not spec-rebuildable, so its record
            // carries the certificate alone.
            let topo_value = topo.to_value();
            for (adversary, report) in [("node", &node), ("domain", &domain)] {
                let record = Record::new("domains")
                    .strategy(kind.label())
                    .spec(kind.spec())
                    .adversary(adversary)
                    .extra_u64("racks", u64::from(racks))
                    .extra_u64("zones", u64::from(cli.zones))
                    .topology(topo_value.clone())
                    .report(report.to_value());
                jsonl.record(record.to_json());
            }
            let mut repaired_record = Record::new("domains")
                .strategy(kind.label())
                .adversary("domain-repaired")
                .extra_u64("racks", u64::from(racks))
                .extra_u64("zones", u64::from(cli.zones))
                .topology(topo_value);
            if let Some(cert) = &repaired_cert {
                repaired_record = repaired_record.bare_certificate(cert.to_value());
            }
            jsonl.record(repaired_record.to_json());
            let row = vec![
                racks.to_string(),
                cli.zones.to_string(),
                n.to_string(),
                csv_safe(&kind.label()),
                node.measured_availability.to_string(),
                node.exact.to_string(),
                domain.measured_availability.to_string(),
                domain.exact.to_string(),
                repaired_avail.to_string(),
                repair_moved.to_string(),
            ];
            table.row(row.clone());
            csv.row(&row);
        }
    }

    println!("{}", table.render());
    if let Err(e) = csv.write() {
        eprintln!("cannot write {}: {e}", csv.path().display());
        return ExitCode::FAILURE;
    }
    if let Err(e) = jsonl.write() {
        eprintln!("cannot write {}: {e}", jsonl.path().display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", csv.path().display());
    println!(
        "wrote {} ({} certified records)",
        jsonl.path().display(),
        jsonl.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &str) -> Cli {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        parse_cli(&args).expect("valid flags")
    }

    #[test]
    fn zoned_jittered_trees_are_seeded_and_reproducible() {
        let cli = cli("--racks 4,6 --rack-size 4 --zones 2 --jitter 1 --seed 0");
        let generated = trees(&cli).unwrap();
        let shapes: Vec<(u16, u16)> = generated.iter().map(|(r, t)| (*r, t.num_nodes())).collect();
        assert_eq!(shapes, [(4, 16), (6, 25)]);
        // Two parent maps: node → rack, then rack → zone.
        assert_eq!(
            generated[0].1.to_value().to_json(),
            "{\"maps\": [[0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3], [0, 0, 1, 1]]}"
        );
        assert_eq!(trees(&cli).unwrap(), generated);
    }

    #[test]
    fn zones_must_divide_every_rack_count() {
        let err = trees(&cli("--racks 4 --rack-size 4 --zones 3")).unwrap_err();
        assert!(err.contains("does not divide"), "{err}");
        assert!(parse_cli(&["--rack-size".into(), "0".into()]).is_err());
    }
}
