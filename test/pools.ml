(* The multi-job legs of the determinism tests run on an oversubscribed
   pool: [Par.create] clamps a plain pool to the host's cores, and a
   campaign behind the gate ([Par.map_gated]) runs a test-sized fault
   list inline, so either would leave a small host on one domain and
   miss every cross-domain bug.  One job runs on the caller. *)
let with_jobs jobs f =
  if jobs = 1 then f None
  else Csrtl_par.Par.with_pool ~oversubscribe:true ~jobs (fun p -> f (Some p))
