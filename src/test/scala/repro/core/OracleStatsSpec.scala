package repro.core

import org.apache.spark.sql.Row
import repro.{Oracle, SparkSpec}
import repro.dna.{Dna, ReadSim}
import repro.quality.Quast

/** DuckDB oracle checks recomputed from the program's own inputs and
  * compared with what the program returns.
  */
class OracleStatsSpec extends SparkSpec {

  val k = 15

  /** Round-1 contigs of a repeat-rich genome. */
  lazy val contigs: Seq[Node] = {
    val g = Dna.genome(Dna.GenomeSpec(2500, longRepeats = 8, longRepeatLen = 90), 61)
    val ns = TestGraphs.nodes(spark, TestGraphs.perfectReads(g, 40, k), k).cache()
    val lab = ContigLabeling.labelLR(ns)
    ContigMerging.merge(ns, lab.labels, ContigMerging.Opts(k, dropDanglingShort = false))
      .values.collect().toSeq
  }

  lazy val contigSeqs: Seq[String] = contigs.map(_.seq.toString)

  def lensDf = {
    import spark.implicits._
    contigSeqs.map(_.length.toLong).toDF("len")
  }

  def quast(minLen: Int): Quast.Report =
    Quast.evaluate(spark.sparkContext.parallelize(contigSeqs, 4), None, k, minLen)

  def asLong(x: Any): Long = x.toString.toLong

  /** DuckDB's count and total length of the contigs of at least `minLen` bp. */
  def duckCountTotal(minLen: Int): (Long, Long) = {
    val (_, Seq(r)) = Oracle.query(
      "SELECT COUNT(*) AS n, CAST(COALESCE(SUM(CAST(len AS BIGINT)), 0) AS BIGINT) AS total " +
      s"FROM lens WHERE CAST(len AS BIGINT) >= $minLen",
      "lens" -> lensDf)
    (asLong(r.get(0)), asLong(r.get(1)))
  }

  test("oracle: contig count and total length match DuckDB aggregates") {
    val rep = quast(minLen = 100)
    assert(rep.nContigs > 0 && rep.nContigs < contigSeqs.size,
           s"the 100 bp filter should keep some of ${contigSeqs.size} contigs")
    assert((rep.nContigs, rep.totalLength) == duckCountTotal(100))
  }

  test("oracle: QUAST-style minimum-length filter matches DuckDB") {
    // Thresholds on, just above and just below real contig lengths, so an
    // off-by-one in the >= comparison shows.
    val lens = contigSeqs.map(_.length).distinct.sorted
    val thresholds = Seq(1, k, 500, lens.last + 1) ++
      Seq(lens(lens.size / 2), lens.last).flatMap(l => Seq(l - 1, l, l + 1))
    for (t <- thresholds.distinct) {
      val rep = quast(t)
      assert((rep.nContigs, rep.totalLength) == duckCountTotal(t), s"minLen=$t")
    }
  }

  test("oracle: per-dataset read-length stats match DuckDB") {
    val reads = ReadSim.reads(spark, Dna.genome(Dna.GenomeSpec(4800), 6),
                              ReadSim.ReadSpec(80, 240), seed = 7, partitions = 16)
    val stats = reads.selectExpr("COUNT(*) AS n", "MIN(LENGTH(read)) AS minl",
                                 "MAX(LENGTH(read)) AS maxl")
    Oracle.assertEquivalent(
      stats,
      "SELECT COUNT(*) AS n, MIN(LENGTH(read)) AS minl, MAX(LENGTH(read)) AS maxl FROM reads",
      "reads" -> reads.toDF())
  }

  test("oracle: bubble filtering keeps what DuckDB's end-pair groups require") {
    import spark.implicits._
    // The filter's input contigs with their left and right neighbours
    // (null where a side has no edge).
    val input = contigs.map { c =>
      def nbr(side: Int) = c.edgesOn(side).headOption.map(e => java.lang.Long.valueOf(e.nbr))
      (c.id, nbr(Side.Left).orNull, nbr(Side.Right).orNull)
    }.toDF("id", "l", "r")
    // c: typed input; g: the contigs with two ambiguous ends, keyed by
    // their unordered end pair (a, b).
    val cte = "WITH c AS (SELECT CAST(id AS BIGINT) AS id, CAST(l AS BIGINT) AS l, " +
              "CAST(r AS BIGINT) AS r FROM contigs), " +
              "g AS (SELECT id, LEAST(l, r) AS a, GREATEST(l, r) AS b FROM c " +
              "WHERE l IS NOT NULL AND r IS NOT NULL) "
    // Every end-pair group's members, each with its group's size.
    val (_, groupRows) = Oracle.query(cte +
      "SELECT id, a, b, COUNT(*) OVER (PARTITION BY a, b) AS size FROM g",
      "contigs" -> input)
    // Contigs without two ambiguous ends, plus contigs alone in their group.
    val (_, mustRows) = Oracle.query(cte +
      "SELECT id FROM c WHERE l IS NULL OR r IS NULL " +
      "UNION SELECT g.id FROM g JOIN " +
      "(SELECT a, b FROM g GROUP BY a, b HAVING COUNT(*) = 1) s ON g.a = s.a AND g.b = s.b",
      "contigs" -> input)
    val groups: Map[(Long, Long), Seq[Row]] =
      groupRows.groupBy(r => (asLong(r.get(1)), asLong(r.get(2))))
    val mustSurvive = mustRows.map(r => asLong(r.get(0))).toSet
    assert(groups.values.exists(g => asLong(g.head.get(3)) >= 2),
           "fixture should have a multi-member bubble group")

    val out = BubbleFiltering.filter(
      spark.sparkContext.parallelize(contigs.map(c => (c.id, c)), 4), editThr = 5)
      .collect().toSeq
    val outIds = out.map(_._1).toSet
    val byId = contigs.map(c => (c.id, c)).toMap
    assert(outIds.size == out.size, "no contig is emitted twice")
    assert(mustSurvive.subsetOf(outIds), s"lost: ${mustSurvive -- outIds}")
    assert(out.forall { case (id, c) => byId.get(id).contains(c) }, "output ⊆ input")
    for (((a, b), members) <- groups)
      assert(members.exists(r => outIds.contains(asLong(r.get(0)))), s"group ($a, $b) emptied")
  }
}
