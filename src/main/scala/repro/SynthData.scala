package repro

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Synthetic read sets for tests and oracle checks. */
object SynthData {

  /** DNA short reads over a synthetic genome — the schema evaluated by the
    * genome-assembly paper (one read string per row, FASTQ-lite). Scale
    * factor 1.0 corresponds to a 240 kbp genome at 10x coverage; sf scales
    * both. Deterministic in (sf, seed). See repro.dna for the generators.
    */
  def dnaReads(spark: SparkSession, sf: Double = 0.01, readLen: Int = 100,
               coverage: Double = 10.0, seed: Long = 6): DataFrame = {
    val genomeLen = math.max(2000, (240000 * sf).toInt)
    val genome = repro.dna.Dna.genome(
      repro.dna.Dna.GenomeSpec(genomeLen, longRepeats = genomeLen / 8000,
                               shortRepeats = genomeLen / 12000), seed)
    val nReads = math.max(1L, (genomeLen * coverage / readLen).toLong)
    repro.dna.ReadSim.readsDf(
      spark, genome, repro.dna.ReadSim.ReadSpec(readLen, nReads), seed + 1)
  }
}
