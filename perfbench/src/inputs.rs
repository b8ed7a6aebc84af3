//! The workloads' inputs: generated from the seed before the measured
//! process starts, written as TSV, and loaded back by that process.

use sspc_common::io::{read_delimited, read_labels, write_delimited, write_labels};
use sspc_common::rng::derive_seed;
use sspc_common::{ClusterId, Dataset, DimId, Error, ObjectId, Result, Supervision};
use sspc_datagen::supervision::{draw, InputKind};
use sspc_datagen::{generate, GeneratorConfig};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Best-of-10 SSPC on gene-expression-shaped datasets.
    PaperProtocol,
    /// Single SSPC runs on two 8000 × 1000 matrices.
    ScaleN,
    /// Closed-loop clients against a router over two shard servers.
    ServiceClosed,
}

impl Workload {
    /// Parses a workload name.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] naming the accepted set.
    pub fn parse(name: &str) -> Result<Workload> {
        match name {
            "paper_protocol" => Ok(Workload::PaperProtocol),
            "scale_n" => Ok(Workload::ScaleN),
            "service_closed" => Ok(Workload::ServiceClosed),
            _ => Err(Error::InvalidParameter(format!(
                "unknown workload `{name}` (accepted: paper_protocol, scale_n, service_closed)"
            ))),
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperProtocol => "paper_protocol",
            Workload::ScaleN => "scale_n",
            Workload::ServiceClosed => "service_closed",
        }
    }

    /// The input shape and supervision of this workload.
    pub fn spec(self) -> InputSpec {
        match self {
            // Gene-expression shape: clusters relevant in 1 % of 3000 dims.
            Workload::PaperProtocol => InputSpec {
                datasets: 8,
                n: 150,
                d: 3000,
                k: 5,
                dims: 30,
                outliers: 0.0,
                labels: InputKind::Both,
                labels_per_class: 3,
                regular: false,
            },
            // Fig. 8a past the paper's n: 64 MB of values per layout. With
            // the generator's random cluster sizes and spreads, the cost of
            // a job differed by up to 1.8x between one seed's matrix and
            // another's, so these matrices are regular, and there are two.
            Workload::ScaleN => InputSpec {
                datasets: 2,
                n: 8000,
                d: 1000,
                k: 10,
                dims: 20,
                outliers: 0.05,
                labels: InputKind::ObjectsOnly,
                labels_per_class: 3,
                regular: true,
            },
            Workload::ServiceClosed => InputSpec {
                datasets: 4,
                n: 200,
                d: 500,
                k: 4,
                dims: 10,
                outliers: 0.0,
                labels: InputKind::Both,
                labels_per_class: 2,
                regular: false,
            },
        }
    }
}

/// Shape of a workload's generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct InputSpec {
    /// Datasets the workload rotates over.
    pub datasets: usize,
    /// Objects per dataset.
    pub n: usize,
    /// Dimensions per dataset.
    pub d: usize,
    /// Planted clusters, and the `k` SSPC is asked for.
    pub k: usize,
    /// Average relevant dimensions per cluster (`l_real`).
    pub dims: usize,
    /// Outlier fraction.
    pub outliers: f64,
    /// Which labels the supervision draw hands out (coverage is 1).
    pub labels: InputKind,
    /// Labels per kind per class.
    pub labels_per_class: usize,
    /// Equal cluster sizes and one local spread, 5 % of the range, for
    /// every (cluster, dimension), instead of the generator's random ones
    /// (sizes within 20 % of each other, spreads of 1–10 %).
    pub regular: bool,
}

/// Paths of one dataset's files.
#[derive(Debug, Clone)]
pub struct DatasetFiles {
    /// The matrix, one object per line.
    pub data: PathBuf,
    /// Planted cluster per object (`-` for outliers).
    pub truth: PathBuf,
    /// Supervision lines `o <object> <class>` and `d <dim> <class>`, the
    /// format `sspc-cli cluster --labels` reads.
    pub labels: PathBuf,
}

/// The files of dataset `i` in `dir`.
pub fn files(dir: &Path, i: usize) -> DatasetFiles {
    DatasetFiles {
        data: dir.join(format!("data-{i}.tsv")),
        truth: dir.join(format!("truth-{i}.tsv")),
        labels: dir.join(format!("labels-{i}.tsv")),
    }
}

fn io_err(path: &Path, e: std::io::Error) -> Error {
    Error::InvalidParameter(format!("{}: {e}", path.display()))
}

fn create(path: &Path) -> Result<BufWriter<File>> {
    File::create(path)
        .map(BufWriter::new)
        .map_err(|e| io_err(path, e))
}

/// Generates every dataset of `workload` from `seed` and writes its files
/// into `dir`. Deterministic in `seed`.
///
/// # Errors
///
/// Generator and I/O failures.
pub fn prepare(workload: Workload, seed: u64, dir: &Path) -> Result<()> {
    let spec = workload.spec();
    for i in 0..spec.datasets {
        let mut config = GeneratorConfig {
            n: spec.n,
            d: spec.d,
            k: spec.k,
            avg_cluster_dims: spec.dims,
            outlier_fraction: spec.outliers,
            ..Default::default()
        };
        if spec.regular {
            config.size_imbalance = 0.0;
            config.local_sd_frac_min = 0.05;
            config.local_sd_frac_max = 0.05;
        }
        let data = generate(&config, derive_seed(seed, 1000 + i as u64))?;
        let sup = draw(
            &data.truth,
            spec.labels,
            1.0,
            spec.labels_per_class,
            derive_seed(seed, 2000 + i as u64),
        )?;
        let f = files(dir, i);

        let mut out = create(&f.data)?;
        write_delimited(&data.dataset, &mut out, '\t')?;
        out.flush().map_err(|e| io_err(&f.data, e))?;

        let mut out = create(&f.truth)?;
        write_labels(&mut out, data.truth.assignment())?;
        out.flush().map_err(|e| io_err(&f.truth, e))?;

        let mut text = String::new();
        for (o, c) in &sup.labeled_objects {
            text.push_str(&format!("o {} {}\n", o.index(), c.index()));
        }
        for (j, c) in &sup.labeled_dims {
            text.push_str(&format!("d {} {}\n", j.index(), c.index()));
        }
        std::fs::write(&f.labels, text).map_err(|e| io_err(&f.labels, e))?;
    }
    Ok(())
}

fn open(path: &Path) -> Result<BufReader<File>> {
    File::open(path)
        .map(BufReader::new)
        .map_err(|e| io_err(path, e))
}

/// Bytes in a file, for parse throughput.
pub fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Reads a matrix with `sspc_common::io::read_delimited`.
///
/// # Errors
///
/// I/O and parse failures.
pub fn load_dataset(path: &Path) -> Result<Dataset> {
    read_delimited(open(path)?, '\t')
}

/// Reads a label file with `sspc_common::io::read_labels`.
///
/// # Errors
///
/// I/O and parse failures.
pub fn load_truth(path: &Path) -> Result<Vec<Option<ClusterId>>> {
    read_labels(open(path)?, &path.display().to_string())
}

/// Reads a supervision file (`o|d <id> <class>` per line).
///
/// # Errors
///
/// I/O failures and malformed lines.
pub fn load_supervision(path: &Path) -> Result<Supervision> {
    let mut sup = Supervision::none();
    for line in open(path)?.lines() {
        let line = line.map_err(|e| io_err(path, e))?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        let parsed = match fields.as_slice() {
            [kind, id, class] => id
                .parse()
                .ok()
                .zip(class.parse().ok())
                .map(|ids| (*kind, ids)),
            _ => None,
        };
        sup = match parsed {
            Some(("o", (o, c))) => sup.label_object(ObjectId(o), ClusterId(c)),
            Some(("d", (j, c))) => sup.label_dim(DimId(j), ClusterId(c)),
            _ => {
                return Err(Error::InvalidSupervision(format!(
                    "{}: expected `o|d <id> <class>`, got `{line}`",
                    path.display()
                )))
            }
        };
    }
    Ok(sup)
}
