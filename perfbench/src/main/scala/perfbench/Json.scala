package perfbench

/** The one-line result document the benchmark prints last. */
object Json {

  private def num(x: Double): String =
    if (x.isNaN || x.isInfinite) throw new IllegalStateException(s"metric is not a number: $x")
    else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString
    else x.toString

  private def str(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""

  /** `metrics`: (name, value, unit), printed in the given order. */
  def result(correct: Boolean, attempted: Long, failed: Long,
             metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (n, v, u) => s"${str(n)}: {${str("value")}: ${num(v)}, ${str("unit")}: ${str(u)}}" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
