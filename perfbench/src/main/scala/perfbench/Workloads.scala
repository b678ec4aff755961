package perfbench

import repro.core.{Assembler, ContigLabeling}
import repro.dna.{Datasets, Dna, ReadSim}

/** One benchmark workload: a generated genome, a read recipe, the
  * assembler options and the number of read samples an untraced run
  * assembles. The genome seed is fixed per workload; the read seeds come
  * from the command line, so every run assembles fresh read samples of
  * the same genome.
  */
final case class Workload(
    name: String,
    genomeSpec: Dna.GenomeSpec,
    genomeSeed: Long,
    readSpec: ReadSim.ReadSpec,
    opts: Assembler.Opts,
    samples: Int = 1,
) {
  /** Error-free reads: contigs must be exact substrings of the genome. */
  def errorFree: Boolean = readSpec.errRate == 0.0 && readSpec.nRate == 0.0

  /** The read seed of sample `i` of a run with seed `seed`; sample 0, the
    * one a traced run uses, has the run's seed itself.
    */
  def sampleSeed(seed: Long, i: Int): Long = seed + i * 1000003L
}

object Workloads {

  /** Datasets.HC2's genome recipe (GC 0.41; one 300 bp repeat per 8 kb and
    * one 30 bp repeat per 3 kb) at another length.
    */
  def hc2Genome(length: Int): Dna.GenomeSpec = Datasets.HC2.genomeSpec.copy(
    length = length, longRepeats = length / 8000, shortRepeats = length / 3000)

  val all: Seq[Workload] = Seq(
    // HC2 at one tenth of Datasets.HC2 (24 kb instead of 240 kb), same 20x
    // coverage, read length and error model. The full HC2 assembles in
    // 70-90 s on 4 cores; a benchmark run has to stay near a minute. Two
    // read samples a run: tip removing's superstep count depends on where
    // the sample's errors fall (6 to 42 on read seeds 21-40), so one
    // sample's time carries that on top of the host's noise.
    Workload("hc2-lr", hc2Genome(24000), Datasets.HC2.seed,
             Datasets.HC2.readSpec.copy(nReads = 4800),
             Assembler.Opts(method = ContigLabeling.LR), samples = 2),
    // ~5000x error-free coverage of an 8 kb genome of the same recipe:
    // reads outnumber distinct k-mers ~50 to 1. Construction grows with
    // the reads while the DBG stays small, so it takes about twice its
    // hc2-lr share of the run (round-1 labeling, all per-superstep
    // overhead, is still the largest stage); error correction finds
    // almost nothing to remove. Its DBG and superstep counts do not change
    // with the read seed, so one sample a run is enough.
    Workload("deep-clean", hc2Genome(8000), 46L,
             ReadSim.ReadSpec(readLen = 100, nReads = 400000, errRate = 0.0, nRate = 0.0),
             Assembler.Opts(method = ContigLabeling.LR)),
  )

  /** Not a benchmark workload: a 3 kb genome of the same recipe with 600
    * reads, which the build assembles once to record the JVM's class-data
    * archive. It runs the same code as `hc2-lr`, so it loads the same
    * classes, in a fraction of a run's time.
    */
  val classTraining: Workload = Workload("class-training", hc2Genome(3000), Datasets.HC2.seed,
    Datasets.HC2.readSpec.copy(nReads = 600), Assembler.Opts(method = ContigLabeling.LR))

  def byName(name: String): Option[Workload] = (all :+ classTraining).find(_.name == name)
}
