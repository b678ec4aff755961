package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.Dataset
import repro.dna.Kmer
import repro.pregel.PregelRuntime

/** Operation ① — de Bruijn graph construction (paper §IV-B).
  *
  * Two mini-MapReduce phases, exactly as the paper, each one shuffle of
  * primitive `(Long, Long)` records onto the runtime's partitioner
  * ([[PregelRuntime.partitioner]]) and each reduce a [[LongTable]]:
  *  (i)  each read partition cuts its reads into (k+1)-mers by a sliding
  *       window that never spans an 'N' (or any non-ACGT character),
  *       canonicalises them and counts them by packed 64-bit ID; the
  *       partial counts are summed per (k+1)-mer, and those with coverage
  *       <= theta are filtered as likely read errors.
  *  (ii) each surviving (k+1)-mer contributes its two incidences (prefix
  *       and suffix k-mer vertices, Fig. 8 slots) as (vertex,
  *       coverage << 3 | slot); each vertex folds its own into its bitmap
  *       and per-slot coverages.
  * The vertices come out on the runtime's partitioner, so the Pregel runs
  * of round 1 place them without a shuffle.
  */
object DbgConstruction {

  /** Canonical packed (k+1)-mers of one read; none spans an 'N'. */
  def edgeMers(read: String, k: Int): Seq[Long] = Kmer.canonicalWindows(read, k + 1)

  /** Full construction: the compressed k-mer vertices of the DBG, on the
    * runtime's partitioner by ID.
    *
    * @param theta coverage threshold: keep a (k+1)-mer iff count > theta
    */
  def build(reads: Dataset[String], k: Int, theta: Long): RDD[KmerAdj.KmerVertex] = {
    require(k >= 3 && k <= Kmer.MaxK && k % 2 == 1, s"k must be odd in [3,31], got $k")
    val part = PregelRuntime.partitioner(reads.sparkSession.sparkContext)
    val partialCounts = reads.rdd.mapPartitions { rs =>
      val counts = new LongTable(1)
      rs.foreach { r =>
        val es = edgeMers(r, k)
        var i = 0
        while (i < es.length) { counts.add(es(i), 0, 1L); i += 1 }
      }
      counts.positions.map(p => (counts.key(p), counts.sum(p, 0)))
    }
    val incidences = partialCounts.partitionBy(part).mapPartitions { it =>
      val counts = new LongTable(1)
      it.foreach { case (e, c) => counts.add(e, 0, c) }
      counts.positions.filter(counts.sum(_, 0) > theta).flatMap { p =>
        val c = counts.sum(p, 0)
        KmerAdj.incidences(counts.key(p), k).map { case (v, s) => (v, c << 3 | s) }
      }
    }
    incidences.partitionBy(part).mapPartitions({ it =>
      val covs = new LongTable(8)
      it.foreach { case (v, cs) => covs.add(v, (cs & 7L).toInt, cs >>> 3) }
      covs.positions.map { p =>
        KmerAdj.fromSlots(covs.key(p), (0 until 8).map(s => (s, covs.sum(p, s))).filter(_._2 > 0))
      }
    }, preservesPartitioning = true)
  }

  /** Decode compressed vertices into the unified node model, keyed by ID;
    * the vertices' partitioner is kept.
    */
  def nodes(vertices: RDD[KmerAdj.KmerVertex], k: Int): RDD[(Long, Node)] =
    vertices.mapPartitions(_.map(v => (v.id, KmerAdj.decode(v, k))), preservesPartitioning = true)
}
