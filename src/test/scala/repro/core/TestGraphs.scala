package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.dna.PackedSeq

/** Shared fixtures for core-pipeline tests. */
object TestGraphs {

  /** Error-free reads of length `readLen` covering the genome with overlap
    * >= k, from the forward strand only.
    */
  def perfectReads(genome: String, readLen: Int, k: Int): Seq[String] = {
    val step = math.max(1, readLen - k - 1)
    val starts = (0 to math.max(0, genome.length - readLen) by step) :+
      math.max(0, genome.length - readLen)
    starts.distinct.map(i => genome.substring(i, math.min(genome.length, i + readLen)))
  }

  /** Same coverage but alternating strands (every other read is rc'd). */
  def mixedStrandReads(genome: String, readLen: Int, k: Int): Seq[String] =
    perfectReads(genome, readLen, k).zipWithIndex.map {
      case (r, i) => if (i % 2 == 1) repro.dna.Dna.rc(r) else r
    }

  def toDs(spark: SparkSession, reads: Seq[String]): Dataset[String] = {
    import spark.implicits._
    spark.createDataset(reads)
  }

  /** Build decoded DBG nodes from reads. */
  def nodes(spark: SparkSession, reads: Seq[String], k: Int,
            theta: Long = 0): RDD[(Long, Node)] =
    DbgConstruction.nodes(DbgConstruction.build(toDs(spark, reads), k, theta), k)

  /** A node's edges in a fixed order, so that two edge lists compare
    * equal exactly when they hold the same edges the same number of times.
    */
  def sortedEdges(n: Node): Seq[Edge] = n.edges.sortBy(e => (e.nbr, e.mySide, e.nbrSide, e.cov))

  /** Compare two labelings as partitions of the same vertex set. */
  def samePartition(a: Map[Long, Long], b: Map[Long, Long]): Boolean = {
    if (a.keySet != b.keySet) false
    else {
      def groups(m: Map[Long, Long]): Set[Set[Long]] =
        m.groupBy(_._2).values.map(_.keySet).toSet
      groups(a) == groups(b)
    }
  }

  /** Connected components by union-find, each vertex labelled with the
    * smallest ID in its component. Edges with an end outside `vertices`
    * are ignored.
    */
  def components(vertices: Iterable[Long], edges: Iterable[(Long, Long)]): Map[Long, Long] = {
    val parent = scala.collection.mutable.HashMap.empty[Long, Long]
    vertices.foreach(v => parent(v) = v)
    def find(v: Long): Long = {
      var root = v
      while (parent(root) != root) root = parent(root)
      var x = v
      while (x != root) { val next = parent(x); parent(x) = root; x = next }
      root
    }
    for ((a, b) <- edges if parent.contains(a) && parent.contains(b)) {
      val (ra, rb) = (find(a), find(b))
      if (ra < rb) parent(rb) = ra else if (rb < ra) parent(ra) = rb
    }
    parent.keys.map(v => (v, find(v))).toMap
  }

  /** Exact contig-labeling oracle: the components of the subgraph of
    * unambiguous (non-⟨m-n⟩) vertices and the edges between two of them.
    * A ⟨1⟩ or ⟨1-1⟩ vertex has at most one edge per side, so these
    * components are exactly the maximal unambiguous paths (and cycles).
    */
  def unambiguousComponents(nodes: RDD[(Long, Node)]): Map[Long, Long] = {
    val unamb = nodes.filter(_._2.typ != VType.MN).collect()
    components(unamb.map(_._1), unamb.flatMap { case (id, n) => n.edges.map(e => (id, e.nbr)) })
  }

  /** Build a symmetric manual node graph from undirected typed edges.
    *
    * Each edge is (idA, sideA, idB, sideB, cov); node sequences are given
    * by seqLen (dummy A-runs, only lengths matter for tip removing).
    */
  def manualGraph(spark: SparkSession,
                  nodeLens: Map[Long, Int],
                  edges: Seq[(Long, Int, Long, Int, Long)],
                  k: Int): RDD[(Long, Node)] = {
    val adj = edges.flatMap { case (a, sa, b, sb, cov) =>
      Seq((a, Edge(b, sa, sb, cov)),
          (b, Edge(a, sb, sa, cov)))
    }.groupBy(_._1).view.mapValues(_.map(_._2).toVector).toMap
    val ns = nodeLens.map { case (id, len) =>
      (id, Node(id, PackedSeq.fromString("A" * len), adj.getOrElse(id, Vector.empty), 0L))
    }.toSeq
    spark.sparkContext.parallelize(ns, 2)
  }
}
