package repro.core

import repro.SparkSpec
import scala.util.Random

class SvCCSpec extends SparkSpec {

  /** Run S-V over an undirected edge list. */
  def sv(n: Long, edges: Seq[(Long, Long)]): Map[Long, Long] = {
    val adjMap = edges.flatMap { case (a, b) => Seq((a, b), (b, a)) }
      .groupBy(_._1).view.mapValues(_.map(_._2).toArray).toMap
    val adj = (1L to n).map(i => (i, adjMap.getOrElse(i, Array.empty[Long])))
    val (labels, _) = SvCC.run(spark.sparkContext.parallelize(adj, 4))
    labels.collect().toMap
  }

  test("a single path is one component labeled by its minimum") {
    val labels = sv(6, (1L to 5L).map(i => (i, i + 1)))
    assert(labels.values.toSet == Set(1L))
  }

  test("two components get their own minima") {
    val labels = sv(6, Seq((1L, 2L), (2L, 3L), (4L, 5L), (5L, 6L)))
    assert((1L to 3L).map(labels) == Seq(1L, 1L, 1L))
    assert((4L to 6L).map(labels) == Seq(4L, 4L, 4L))
  }

  test("isolated vertices are their own components") {
    val labels = sv(4, Seq((2L, 3L)))
    assert(labels(1L) == 1L)
    assert(labels(4L) == 4L)
    assert(labels(2L) == 2L && labels(3L) == 2L)
  }

  test("a cycle is one component") {
    val labels = sv(5, Seq((1L, 2L), (2L, 3L), (3L, 4L), (4L, 5L), (5L, 1L)))
    assert(labels.values.toSet == Set(1L))
  }

  test("a star hooks onto the center's component minimum") {
    val labels = sv(5, Seq((3L, 1L), (3L, 2L), (3L, 4L), (3L, 5L)))
    assert(labels.values.toSet == Set(1L))
  }

  test("matches union-find components on random graphs") {
    val rnd = new Random(77)
    for (trial <- 1 to 3) {
      val n = 40 + rnd.nextInt(40)
      val edges = (1 to n).map(_ =>
        (1L + rnd.nextInt(n), 1L + rnd.nextInt(n))).filter(e => e._1 != e._2)
      val ours = sv(n.toLong, edges)
      assert(ours == TestGraphs.components(1L to n.toLong, edges), s"trial $trial n=$n")
    }
  }

  test("supersteps stay logarithmic: long path converges in O(log n) rounds") {
    val n = 256L
    val adj = (1L to n).map(i => (i, Seq(i - 1, i + 1).filter(j => j >= 1 && j <= n).toArray))
    val (labels, stats) = SvCC.run(spark.sparkContext.parallelize(adj, 4))
    assert(labels.collect().toMap.values.toSet == Set(1L))
    // 3 supersteps per round, O(log n) rounds with slack
    assert(stats.supersteps <= 3 * 3 * (64 - java.lang.Long.numberOfLeadingZeros(n) + 2),
           s"supersteps=${stats.supersteps}")
  }

  test("empty graph terminates immediately") {
    val (labels, stats) = SvCC.run(
      spark.sparkContext.parallelize(Seq((5L, Array.empty[Long])), 1))
    assert(labels.collect().toMap == Map(5L -> 5L))
    assert(stats.supersteps <= 2)
  }
}
