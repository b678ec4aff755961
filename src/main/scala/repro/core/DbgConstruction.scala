package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._
import repro.dna.Kmer

/** Operation ① — de Bruijn graph construction (paper §IV-B).
  *
  * Two mini-MapReduce phases, exactly as the paper:
  *  (i)  reads are cut into (k+1)-mers by a sliding window that never
  *       spans an 'N' (or any non-ACGT character), canonicalised, counted by
  *       their packed 64-bit ID; (k+1)-mers with coverage <= theta are
  *       filtered as likely read errors. This phase is relational and runs
  *       on DataFrames (oracle-checked against DuckDB in tests).
  *  (ii) each surviving (k+1)-mer contributes its two incidences (prefix
  *       and suffix k-mer vertices, Fig. 8 slots); a reduceByKey merges the
  *       partial adjacency bitmaps and sums per-edge coverages.
  */
object DbgConstruction {

  /** Canonical packed (k+1)-mers of one read; none spans an 'N'. */
  def edgeMers(read: String, k: Int): Seq[Long] = Kmer.canonicalWindows(read, k + 1)

  /** Phase (i) as a DataFrame: columns (emer: Long, cnt: Long). */
  def countEdgeMers(reads: Dataset[String], k: Int): DataFrame = {
    val spark = reads.sparkSession
    import spark.implicits._
    reads
      .flatMap(r => edgeMers(r, k))
      .toDF("emer")
      .groupBy($"emer")
      .agg(count(lit(1)).as("cnt"))
  }

  /** Full construction: the compressed k-mer vertices of the DBG.
    *
    * @param theta coverage threshold: keep a (k+1)-mer iff count > theta
    */
  def build(reads: Dataset[String], k: Int, theta: Long): RDD[KmerAdj.KmerVertex] = {
    require(k >= 3 && k <= Kmer.MaxK && k % 2 == 1, s"k must be odd in [3,31], got $k")
    val spark = reads.sparkSession
    import spark.implicits._
    val counted = countEdgeMers(reads, k).filter($"cnt" > theta)
    counted
      .as[(Long, Long)]
      .rdd
      .flatMap { case (e, c) => KmerAdj.incidences(e, k).map { case (v, s) => (v, (s, c)) } }
      .aggregateByKey(List.empty[(Int, Long)])((acc, sc) => sc :: acc, _ ++ _)
      .map { case (id, slots) => KmerAdj.fromSlots(id, slots) }
  }

  /** Decode compressed vertices into the unified node model, keyed by ID. */
  def nodes(vertices: RDD[KmerAdj.KmerVertex], k: Int): RDD[(Long, Node)] =
    vertices.map(v => (v.id, KmerAdj.decode(v, k)))
}
