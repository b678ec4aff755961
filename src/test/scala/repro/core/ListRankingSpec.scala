package repro.core

import repro.SparkSpec

class ListRankingSpec extends SparkSpec {

  import ListRanking.LrState

  /** Runs list ranking, checking that the trace's cycle test agrees with
    * the vertices left unfinished.
    */
  def run(pairs: Seq[(Long, LrState)]): ListRanking.LrResult = {
    val res = ListRanking.run(spark.sparkContext.parallelize(pairs, 2))
    assert(res.hasCycles == !res.cycleVertices.isEmpty())
    res
  }

  /** Pair chain like the paper's Fig 11: ids in path order; both outer
    * neighbours ambiguous, so both ends start flipped.
    */
  def chain(ids: Seq[Long]): Seq[(Long, LrState)] =
    ids.zipWithIndex.map { case (id, i) =>
      val p0 = if (i == 0) Ids.flip(id) else ids(i - 1)
      val p1 = if (i == ids.size - 1) Ids.flip(id) else ids(i + 1)
      (id, LrState(p0, p1, p0, p1))
    }

  test("paper Fig 11: the 5-vertex contig labels by its smaller end (164 vs 177)") {
    val ids = Seq(164L, 105L, 26L, 108L, 177L) // v2..v6 of the figure
    val res = run(chain(ids))
    assert(res.cycleVertices.isEmpty())
    val labels = res.labels.collect().toMap
    assert(labels.keySet == ids.toSet)
    assert(labels.values.toSet == Set(164L))
    // Fig 11 finishes in 2 rounds; with end-detection slack: <= 8 supersteps
    assert(res.stats.supersteps <= 8)
  }

  test("the label is the smaller of the two end IDs, not the global minimum") {
    // interior vertex 3 is the global min; ends are 50 and 9 -> label 9
    val res = run(chain(Seq(50L, 3L, 17L, 9L)))
    assert(res.labels.collect().toMap.values.toSet == Set(9L))
  }

  test("a single flipped-flipped vertex halts immediately") {
    val res = run(Seq((9L, LrState(Ids.flip(9L), Ids.flip(9L), Ids.flip(9L), Ids.flip(9L)))))
    assert(res.labels.collect().toMap == Map(9L -> 9L))
    assert(res.stats.supersteps <= 2)
  }

  test("a pure cycle never finishes and is reported as cycle vertices") {
    val ids = (1L to 8L).toSeq
    val cyc = ids.zipWithIndex.map { case (id, i) =>
      val prev = ids((i + ids.size - 1) % ids.size)
      val next = ids((i + 1) % ids.size)
      (id, LrState(prev, next, prev, next))
    }
    val res = run(cyc)
    assert(res.labels.isEmpty())
    assert(res.cycleVertices.keys.collect().toSet == ids.toSet)
  }

  test("mixed chains and cycles: chains finish, cycles fall out") {
    val chainPart = chain(Seq(100L, 101L, 102L))
    val ids = Seq(200L, 201L, 202L, 203L)
    val cyc = ids.zipWithIndex.map { case (id, i) =>
      val prev = ids((i + ids.size - 1) % ids.size)
      val next = ids((i + 1) % ids.size)
      (id, LrState(prev, next, prev, next))
    }
    val res = run(chainPart ++ cyc)
    assert(res.labels.collect().toMap.keySet == Set(100L, 101L, 102L))
    assert(res.cycleVertices.keys.collect().toSet == ids.toSet)
  }

  test("two chains label independently by their own smaller ends") {
    val res = run(chain(Seq(10L, 11L, 12L)) ++ chain(Seq(31L, 30L)))
    val labels = res.labels.collect().toMap
    assert(labels(10L) == 10L && labels(12L) == 10L)
    assert(labels(30L) == 30L && labels(31L) == 30L)
  }

  test("supersteps grow logarithmically with chain length") {
    val short = run(chain((1L to 8L).toSeq)).stats.supersteps
    val long  = run(chain((1L to 512L).toSeq)).stats.supersteps
    assert(long <= short + 2 * 7, s"short=$short long=$long") // 2 SS per extra doubling
  }
}
