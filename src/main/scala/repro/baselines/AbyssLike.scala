package repro.baselines

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.Dataset
import repro.core._
import repro.dna.Kmer

/** ABySS-style assembler (paper §V critique).
  *
  * ABySS [17] builds the DBG by letting every k-mer probe its 8 possible
  * neighbours (a base prepended/appended in either orientation): an edge is
  * created whenever the probed k-mer *exists*, even if the connecting
  * (k+1)-mer was never observed in any read. This creates false edges
  * between k-mers that merely share a (k-1)-mer — the paper's "CA"–"AA"
  * example — increasing ambiguity and shortening contigs. We reproduce
  * exactly that construction (k-mer counting + neighbour probing) and then
  * run the same downstream pipeline.
  */
object AbyssLike {

  /** Canonical k-mer counts from reads (ABySS counts k-mers, not (k+1)-mers). */
  def countKmers(reads: Dataset[String], k: Int): RDD[(Long, Long)] = {
    val spark = reads.sparkSession
    import spark.implicits._
    reads
      .flatMap(r => Kmer.canonicalWindows(r, k))
      .groupByKey(identity)
      .count()
      .rdd
  }

  /** Probe-based DBG: slots confirmed by the mere existence of the probed
    * neighbour k-mer; edge coverage is the min of the two k-mer counts.
    */
  def buildNodes(reads: Dataset[String], k: Int, theta: Long): RDD[(Long, Node)] = {
    val kmers = countKmers(reads, k).filter(_._2 > theta).cache()
    val probes = kmers.flatMap { case (id, cnt) =>
      (0 until 8).map { s =>
        val e = KmerAdj.decodeSlot(id, k, s, 0L)
        (e.nbr, (id, s, cnt))
      }
    }
    val confirmed = probes
      .join(kmers) // probed neighbour exists
      .map { case (nbr, ((id, s, cnt), nbrCnt)) => (id, (s, math.min(cnt, nbrCnt))) }
    val vertices = confirmed
      .groupByKey()
      .map { case (id, slots) =>
        // distinct slots only: existence-based edges carry one coverage each
        KmerAdj.fromSlots(id, slots.groupBy(_._1).map { case (s, cs) => (s, cs.map(_._2).max) })
      }
    DbgConstruction.nodes(vertices, k)
  }

  def assemble(reads: Dataset[String], opts: Assembler.Opts): Assembler.Result =
    Assembler.assembleFromNodes(buildNodes(reads, opts.k, opts.theta), opts)
}
