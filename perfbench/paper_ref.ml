(* The digest of each paper artifact's rendered text, as [suite.exe
   --paper-digests] prints them. The paper workload checks every pass
   against these; an experiment whose output changes on purpose must
   update its line here. *)

let digests =
  [
    ("T1-T4", "8e8bc91ebcefdcfb5d2b27a480d2600f");
    ("F1", "0c8f94f2d58ed84700e27ebdd1f206c5");
    ("F2", "b20b8630d802320d2e0fbfc3c9667554");
    ("F3-F4", "241a0da0d6f981649729f8977185b70d");
    ("Fig5", "259570649c5f72679b4b44ad67986dcd");
    ("Fig6", "60839a9ed898554b83d1f109061dbe7b");
    ("L1", "dc52d604d56a609490e9349a024eebbd");
    ("B1", "0e57e88447a3c059d1420a7a8bd6919a");
    ("S1", "205266a87b2a9d42bb78f3ba0e18ef48");
    ("S2", "c72191154bb254cf6f25333b80a5f997");
    ("A1", "31dfc94832a465d71e9474512b0cfbd8");
    ("A2", "34db1346285333909bf57ea8702a1789");
  ]
