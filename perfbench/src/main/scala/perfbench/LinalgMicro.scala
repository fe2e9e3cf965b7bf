package perfbench

import repro.linalg.{Chol, Mat}

/** Spark-free microbench of the `repro.linalg` kernels on the per-row hot
  * path, at a workload's own widths. Each sample times a batch of calls
  * sized to take about a millisecond (one call, for a kernel slower than
  * that), after warm-up batches; the report takes the median over samples.
  */
object LinalgMicro {
  @volatile private var sink = 0.0

  private def randMat(rows: Int, cols: Int, rnd: scala.util.Random): Mat =
    new Mat(rows, cols, Array.fill(rows * cols)(rnd.nextGaussian()))

  private def randVec(n: Int, rnd: scala.util.Random): Array[Double] =
    Array.fill(n)(rnd.nextGaussian())

  /** ns per call of `op`, one value per sample batch. */
  def perCallNs(flops: Long, samples: Int)(op: => Double): Seq[Double] = {
    val calls = math.max(1L, 1000000L / math.max(1L, flops)).toInt
    def batch(): Double = {
      var acc = 0.0; var i = 0
      val t0 = System.nanoTime()
      while (i < calls) { acc += op; i += 1 }
      val dt = System.nanoTime() - t0
      sink += acc
      dt.toDouble / calls
    }
    (0 until samples / 2).foreach(_ => batch())
    (0 until samples).map(_ => batch())
  }

  /** Samples per metric name: quadForm, mv and addOuter at widths d and dS,
    * and a regularized Cholesky plus inverse at d.
    */
  def run(wl: Workload, seed: Long, samples: Int = 31): Seq[(String, String, Seq[Double])] = {
    val rnd = new scala.util.Random(seed)
    val widths = Seq("d" -> wl.d, "dS" -> wl.dS)
    val kernels = widths.flatMap { case (tag, w) =>
      val rows = wl.kernelRows(w)
      val sq = randMat(w, w, rnd)
      val rect = randMat(rows, w, rnd)
      val x = randVec(w, rnd)
      val y = randVec(rows, rnd)
      Seq(
        (s"linalg.quad_ns.$tag", "ns", perCallNs(w.toLong * w, samples)(sq.quadForm(x))),
        (s"linalg.mv_ns.$tag", "ns", perCallNs(rows.toLong * w, samples)(rect.mv(x)(0))),
        (s"linalg.outer_ns.$tag", "ns",
          perCallNs(rows.toLong * w, samples) { rect.addOuter(1e-12, y, x); rect.a(0) }),
      )
    }
    val d = wl.d
    val b = randMat(d, d, rnd)
    val spd = b.mm(b.transpose)
    var i = 0
    while (i < d) { spd(i, i) += d; i += 1 }
    val chol = perCallNs(d.toLong * d * d, samples)(Chol.regularized(spd, 1e-9).inverse.a(0))
    kernels :+ (("linalg.chol_inv_us.d", "us", chol.map(_ / 1000.0)))
  }
}
