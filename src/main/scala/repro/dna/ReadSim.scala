package repro.dna

import org.apache.spark.sql.{Dataset, SparkSession}
import scala.util.Random

/** Distributed short-read simulator — substitute for the ART simulator [8]
  * used by the paper to generate reads from NCBI reference sequences.
  *
  * Reads are drawn uniformly over the genome, from either strand with equal
  * probability (a reverse-strand read is the reverse complement of the
  * genome segment, read 5'-to-3' like strand 2 in the paper's Fig. 3), with
  * iid substitution errors and occasional undetermined 'N' bases. Each read
  * is deterministic in (seed, read index).
  */
object ReadSim {

  /** @param readLen  fixed read length in bases
    * @param nReads   number of reads to generate
    * @param errRate  per-base substitution error probability (~1% Illumina)
    * @param nRate    per-base probability of an 'N' (undetermined) call
    */
  final case class ReadSpec(
      readLen: Int,
      nReads: Long,
      errRate: Double = 0.01,
      nRate: Double = 0.001,
  )

  /** Simulate one read deterministically from (genome, spec, seed, index). */
  def simulateOne(genome: String, spec: ReadSpec, seed: Long, idx: Long): String = {
    val rnd = new Random(seed * 1000003L + idx)
    val pos = rnd.nextInt(math.max(1, genome.length - spec.readLen + 1))
    val raw = genome.substring(pos, math.min(genome.length, pos + spec.readLen))
    val fwd = if (rnd.nextBoolean()) raw else Dna.rc(raw)
    val sb  = new StringBuilder(fwd.length)
    var i = 0
    while (i < fwd.length) {
      val c = fwd.charAt(i)
      val r = rnd.nextDouble()
      if (r < spec.nRate) sb.append('N')
      else if (r < spec.nRate + spec.errRate) {
        // substitute with a uniformly random *different* base
        val alt = (Dna.code(c) + 1 + rnd.nextInt(3)) & 3
        sb.append(Dna.char(alt))
      } else sb.append(c)
      i += 1
    }
    sb.toString
  }

  /** Generate the full read set as a Dataset[String] named column "read". */
  def reads(spark: SparkSession, genome: String, spec: ReadSpec, seed: Long,
            partitions: Int = 16): Dataset[String] = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(genome)
    spark.sparkContext
      .range(0L, spec.nReads, numSlices = partitions)
      .map(i => simulateOne(bc.value, spec, seed, i))
      .toDS()
      .withColumnRenamed("value", "read")
      .as[String]
  }
}
