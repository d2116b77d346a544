(* Pinned reference totals: what every pass of a workload must reproduce.
   Exhaustive exploration visits every feasible path, so these do not
   depend on the searcher or worker seed.  [main.exe reference] prints
   them in this form; re-pin only after a change that legitimately
   alters a target, and say why in that change. *)

type totals = { paths : int; errors : int; tests : int }

(* [tests] counts the test cases a pass materializes: one per path on
   printf5-local and memcached2x6-par2, the facade's default 64 on
   memcached2x6-local, none on the campaign. *)
let full = function
  | "printf5-local" -> Some { paths = 3581; errors = 0; tests = 3581 }
  | "memcached2x6-local" -> Some { paths = 2415; errors = 208; tests = 64 }
  | "memcached2x6-par2" -> Some { paths = 2415; errors = 208; tests = 2415 }
  | "coreutils48-campaign" -> Some { paths = 10659; errors = 0; tests = 0 }
  | _ -> None

let smoke = function
  | "printf5-local" -> Some { paths = 620; errors = 0; tests = 620 }
  | "memcached2x6-local" -> Some { paths = 133; errors = 76; tests = 64 }
  | "memcached2x6-par2" -> Some { paths = 133; errors = 76; tests = 133 }
  | "coreutils48-campaign" -> Some { paths = 341; errors = 0; tests = 0 }
  | _ -> None

(* Per-tenant (paths, errors) of the campaign workload. *)
let tenants_full =
  [
    ("cu00", (40, 0)); ("cu02", (532, 0)); ("cu04", (150, 0)); ("cu06", (316, 0));
    ("cu08", (150, 0)); ("cu10", (316, 0)); ("cu12", (148, 0)); ("cu14", (1106, 0));
    ("cu16", (102, 0)); ("cu18", (571, 0)); ("cu20", (70, 0)); ("cu22", (532, 0));
    ("cu24", (150, 0)); ("cu26", (316, 0)); ("cu28", (150, 0)); ("cu30", (316, 0));
    ("cu32", (148, 0)); ("cu34", (1106, 0)); ("cu36", (70, 0)); ("cu38", (316, 0));
    ("cu40", (70, 0)); ("cu42", (316, 0)); ("cu44", (70, 0)); ("cu46", (316, 0));
    ("cu48", (70, 0)); ("cu50", (316, 0)); ("cu52", (70, 0)); ("cu54", (316, 0));
    ("cu56", (70, 0)); ("cu58", (316, 0)); ("cu60", (70, 0)); ("cu62", (316, 0));
    ("cu64", (70, 0)); ("cu66", (316, 0)); ("cu68", (70, 0)); ("cu70", (316, 0));
    ("cu72", (40, 0)); ("cu74", (121, 0)); ("cu76", (40, 0)); ("cu78", (121, 0));
    ("cu80", (40, 0)); ("cu82", (121, 0)); ("cu84", (40, 0)); ("cu86", (121, 0));
    ("cu88", (40, 0)); ("cu90", (121, 0)); ("cu92", (40, 0)); ("cu94", (121, 0));
  ]

let tenants_smoke = [ ("cu04", (150, 0)); ("cu20", (70, 0)); ("cu74", (121, 0)) ]
